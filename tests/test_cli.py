"""Command-line interface: exit-status contract and output formats."""

import collections
import functools
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from kinexpand import algfile, checks, cli, expansion, liealg
from kinexpand.cli import MAX_WITNESS_DIGITS, main
from kinexpand.coeffring import _quoted

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DATA_DIR = SRC / "kinexpand" / "data"
# The benchmark's stored report: the JSON report with both seeds blanked.
EXPECTED_REPORT = ROOT / "bench" / "expected" / "report.json"

# .alg files that are malformed, or that casimir-check cannot use
BAD_FILES = {
    "unknown_generator": "name toy\ngenerators A B C\nbracket A B = 1*Q\n",
    "no_family": "name toy\ngenerators A B C\nbracket A B = 1*C\n",
    "duplicate_parameter": "name toy\nparameters t t\ngenerators A B C\n",
    "duplicate_generator": "name toy\ngenerators A B A\n",
    "undeclared_laurent": "name toy\nparameters t\nlaurent eps\ngenerators A B C\n",
    "negative_power": "name toy\nparameters t\ngenerators A B C\nbracket A B = t^-1*C\n",
    "repeated_bracket": "name toy\ngenerators A B C\n"
    "bracket A B = 1*C\nbracket A B = 1*C\n",
    "repeated_name": "name toy\nname other\ngenerators A B C\n",
    "repeated_parameters": "name toy\nparameters t\nparameters s\n"
    "generators A B C\n",
    "repeated_laurent": "name toy\nparameters t s\nlaurent t\nlaurent s\n"
    "generators A B C\n",
    "repeated_generators": "name toy\ngenerators A B\ngenerators C D\n",
    # the named elements of the poincare family need J1, P1, K1, ...
    "wrong_family": "name toy\ngenerators A B C\nbracket A B = 1*C\n"
    "metadata family poincare\n",
    # a coefficient nested past the parser's bound
    "deep_coefficient": "name toy\ngenerators A B C\nbracket A B = "
    + "(" * 400 + "1" + ")" * 400 + "*C\n",
    # a coefficient of 400 nested parentheses around -1, and one unknown
    # parameter 5000 characters long: the message quotes a bounded prefix
    "deep_negative_coefficient": "name toy\ngenerators A B C\nbracket A B = "
    + "(" * 400 + "-1" + ")" * 400 + "*C\n",
    "long_parameter": "name toy\ngenerators A B C\nbracket A B = "
    + "z" * 5000 + "*C\n",
    # a coefficient whose product of two 700-digit literals is past the
    # parser's bound on rationals
    "long_product": "name toy\ngenerators A B C\nbracket A B = "
    + "9" * 700 + "*" + "9" * 700 + "*C\n",
    # a bracket term that ends at its '*'
    "missing_generator": "name toy\ngenerators A B C\nbracket A B = 2*\n",
    # empty bracket terms: an empty right-hand side, a '+' with no term
    # after it, and two '+' in a row (a zero bracket is written 0)
    "empty_bracket": "name toy\ngenerators A B C\nbracket A B =\n",
    "trailing_plus": "name toy\ngenerators A B C\nbracket A B = 2*C +\n",
    "double_plus": "name toy\ngenerators A B C\nbracket A B = 2*C + + 1*C\n",
    # contracting eps diverges: the structure constant has eps^-1
    "eps_inverse": "name toy\nparameters eps\nlaurent eps\n"
    "generators A B C\nbracket A B = eps^-1*C\n",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestExitContract:
    def test_jacobi_pass(self, capsys):
        code, _ = run_cli(capsys, "check-jacobi", "galilei")
        assert code == 0

    def test_jacobi_fail_on_broken_file(self, capsys, tmp_path):
        path = tmp_path / "bad.alg"
        path.write_text(
            "name bad\ngenerators A B C\n"
            "bracket A B = 1*C\nbracket A C = 1*B\nbracket B C = 1*B\n"
        )
        code, out = run_cli(capsys, "check-jacobi", str(path))
        assert code == 1
        assert "violations" in out

    def test_identity_pass_and_fail(self, capsys):
        code, _ = run_cli(capsys, "identity", "galilei", "[J1,J2]", "J3")
        assert code == 0
        code, out = run_cli(capsys, "identity", "galilei", "[J1,J2]", "J2")
        assert code == 1
        assert "residual" in out

    def test_expand_success(self, capsys):
        code, _ = run_cli(capsys, "expand", "poincare")
        assert code == 0

    def test_negative_control_failure_is_expected(self, capsys):
        # the driver must fail closure; that failure is the PASS condition
        code, out = run_cli(capsys, "--format", "json", "expand", "negative-nh")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["expected_to_close"] is False
        assert doc["report"]["passed"] is False
        assert doc["report"]["mismatches"]

    def test_unbounded_exponent_exits_2_with_one_line(self, capsys):
        code = main(["normal-form", "poincare", "H^100000"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "exponent" in captured.err

    def test_positive_curvature_expand(self, capsys):
        # kappa > 0 starts from the witness that leaves a1 formal
        code, out = run_cli(
            capsys, "--format", "json", "expand", "newton_hooke", "--witness", "kappa=1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["report"]["reductions"] == ["a1^2 -> -1"]
        assert doc["report"]["witness"] == {"m": "1", "xi": "1/2", "kappa": "1"}

    def test_positive_curvature_with_real_a1_exits_2(self, capsys):
        code = main(
            ["expand", "newton_hooke", "--witness", "kappa=1", "--witness", "a1=1"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "kinexpand expand: witness leaves constraint "
            "4*a1^2*m^2*xi^2 + kappa = 0 unsatisfied (residual 2)\n"
        )

    def test_target_without_a_witness_takes_no_override(self, capsys):
        assert main(["expand", "negative-nh", "--witness", "kappa=5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "kinexpand expand: negative-nh takes no --witness\n"

    @pytest.mark.parametrize(
        "target,name,accepted",
        [
            ("poincare", "kappa", "c1, c2, a2, a1, omega"),
            ("euclid4", "xi", "c1, c2, a2, a1, omega"),
            ("newton_hooke", "omega", "m, xi, kappa, a1"),
            ("newton_hooke", "c1", "m, xi, kappa, a1"),
        ],
    )
    def test_witness_parameter_the_target_never_reads_exits_2(
        self, capsys, target, name, accepted
    ):
        assert main(["expand", target, "--witness", f"{name}=3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"kinexpand expand: {target} reads no witness parameter {name!r} "
            f"(it reads {accepted})\n"
        )
        # a name outside the parameter context is still unknown
        assert main(["expand", target, "--witness", "foo=1"]) == 2
        assert capsys.readouterr().err == (
            "kinexpand expand: unknown witness parameter 'foo'\n"
        )

    def test_bad_witness_exits_nonzero(self, capsys):
        assert main(["expand", "poincare", "--witness", "omega=5"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["expand", "poincare", "--witness", "foo=1"],
            ["expand", "poincare", "--witness", "omega=5"],
            ["expand", "poincare", "--witness", "omega"],
            ["contract", "poincare", "--param", "zzz"],
            ["bracket", "nosuch", "H", "P1"],
            ["bracket", "poincare", "H", "Q1"],
            ["check-jacobi", "{unknown_generator}"],
            ["casimir-check", "{no_family}"],
            ["normal-form", "poincare", "9" * 5000],
            ["identity", "poincare", "H", "1/0"],
            ["check-jacobi", "{duplicate_parameter}"],
            ["check-jacobi", "{duplicate_generator}"],
            ["check-jacobi", "{undeclared_laurent}"],
            ["check-jacobi", "{negative_power}"],
            ["check-jacobi", "{deep_coefficient}"],
            ["expand", "negative-nh", "--witness", "kappa=5"],
            ["bracket", "{repeated_bracket}", "A", "B"],
            ["check-jacobi", "{repeated_name}"],
            ["check-jacobi", "{repeated_parameters}"],
            ["check-jacobi", "{repeated_laurent}"],
            ["bracket", "{repeated_generators}", "C", "D"],
            ["casimir-check", "{wrong_family}"],
            ["nosuch"],
            ["expand", "nosuch"],
            ["bracket", "poincare", "H"],
            ["--format", "yaml", "corpus"],
            # on the constraint variety, but the curvature sign selects
            # another target (or, at zero, the Galilei table)
            ["expand", "euclid4", "--witness", "c2=1/4", "--witness", "a1=-1/4",
             "--witness", "omega=-1"],
            ["expand", "poincare", "--witness", "c2=-1/4", "--witness", "a1=1/4",
             "--witness", "omega=1"],
            ["expand", "poincare", "--witness", "a1=0", "--witness", "a2=0",
             "--witness", "omega=0"],
            ["expand", "newton_hooke", "--witness", "a1=0", "--witness", "kappa=0"],
            # witness values past MAX_WITNESS_DIGITS
            ["expand", "poincare", "--witness", "omega=-1e5000"],
            ["expand", "poincare", "--witness", "a1=1e5000"],
            # rationals past MAX_RATIONAL_BITS in either grammar
            ["normal-form", "galilei", "((((2^16)^16)^16)^16)*H"],
            ["normal-form", "galilei", "9" * 4000 + "*" + "9" * 4000],
            ["check-jacobi", "{long_product}"],
            # input that ends where a token is due
            ["normal-form", "poincare", "H*"],
            ["normal-form", "poincare", "H^"],
            ["check-jacobi", "{missing_generator}"],
            ["check-jacobi", "{empty_bracket}"],
            ["check-jacobi", "{trailing_plus}"],
            ["bracket", "{double_plus}", "A", "B"],
            # parameters of the context that the target's witness never reads
            ["expand", "poincare", "--witness", "kappa=3", "--witness", "eps=0"],
            # a parameter given twice
            ["expand", "poincare", "--witness", "omega=-1", "--witness", "omega=-2"],
        ],
        ids=lambda argv: " ".join(
            a if len(a) <= 20 else f"{len(a)}x{a[0]}" for a in argv
        ),
    )
    def test_malformed_input_exits_2_with_one_line(self, capsys, tmp_path, argv):
        paths = {name: tmp_path / f"{name}.alg" for name in BAD_FILES}
        for name, path in paths.items():
            path.write_text(BAD_FILES[name])
        argv = [a.format(**paths) for a in argv]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "value", ["-1e4200", "1e999999999", "-1e-999999999", "-" + "1" * 300]
    )
    def test_oversized_witness_value_is_refused_from_its_text(self, capsys, value):
        # refused before Fraction would build a power of ten of any size
        assert main(["expand", "poincare", "--witness", f"omega={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"kinexpand expand: witness value {_quoted(value)} for omega "
            f"has more than {MAX_WITNESS_DIGITS} digits\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-jacobi", "{deep_negative_coefficient}"],
            ["check-jacobi", "{long_parameter}"],
            ["normal-form", "poincare", "q" * 5000],
            ["expand", "poincare", "--witness", "omega" * 600],
            ["expand", "poincare", "--witness", "q" * 3000 + "=1"],
            ["expand", "poincare", "--witness", "omega=" + "7/" * 2000],
            ["expand", "poincare", "--witness", "omega=" + "x" * 3000],
        ],
        ids=[
            "deep-coefficient",
            "long-parameter",
            "long-symbol",
            "long-witness-override",
            "long-witness-parameter",
            "long-witness-value",
            "long-witness-rational",
        ],
    )
    def test_long_malformed_input_gives_one_short_line(self, capsys, tmp_path, argv):
        # the message quotes a bounded prefix of the offending input
        paths = {name: tmp_path / f"{name}.alg" for name in BAD_FILES}
        for name, path in paths.items():
            path.write_text(BAD_FILES[name])
        argv = [a.format(**paths) for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert "'..." in line
        # the file's path aside, the line stays short
        assert len(line.replace(str(tmp_path), "")) < 250

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["bracket", "{repeated_bracket}", "A", "B"],
                "line 4: second bracket for A B (first declared on line 3)",
            ),
            (
                ["bracket", "{repeated_generators}", "C", "D"],
                "line 3: second 'generators' directive (first on line 2)",
            ),
            (
                ["casimir-check", "{wrong_family}"],
                "family 'poincare' needs generator 'J1', "
                "and toy has no such generator",
            ),
            (
                ["normal-form", "poincare", "H*"],
                "kinexpand normal-form: unexpected end of input (at position 2)",
            ),
            (
                ["normal-form", "poincare", "H^"],
                "kinexpand normal-form: expected 'int', found end of input "
                "(at position 2)",
            ),
            (
                ["check-jacobi", "{missing_generator}"],
                "line 3: expected a generator after '*' in '2*', "
                "found end of input",
            ),
            (["nosuch"], "kinexpand: argument command: invalid choice: 'nosuch'"),
            (["expand", "nosuch"], "kinexpand expand: argument target: invalid choice"),
        ],
        ids=[
            "repeated-bracket",
            "repeated-generators",
            "wrong-family",
            "end-of-input",
            "missing-exponent",
            "missing-generator",
            "unknown-command",
            "unknown-target",
        ],
    )
    def test_malformed_input_message(self, capsys, tmp_path, argv, message):
        paths = {name: tmp_path / f"{name}.alg" for name in BAD_FILES}
        for name, path in paths.items():
            path.write_text(BAD_FILES[name])
        assert main([a.format(**paths) for a in argv]) == 2
        assert message in capsys.readouterr().err

    def test_contract_param(self, capsys):
        code, out = run_cli(capsys, "contract", "poincare", "--param", "omega")
        assert code == 0
        assert "poincare at omega->0 equals catalog galilei: True" in out
        code, out = run_cli(
            capsys, "--format", "json", "contract", "poincare", "--param", "omega"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert [c["passed"] for c in doc["checks"]] == [True]

    def test_contract_param_divergence_is_a_failed_check(self, capsys, tmp_path):
        path = tmp_path / "eps_inverse.alg"
        path.write_text(BAD_FILES["eps_inverse"])
        code = main(["--format", "json", "contract", str(path), "--param", "eps"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        (check,) = json.loads(captured.out)["checks"]
        assert check["passed"] is False
        assert check["detail"] == "divergent term with contraction-parameter power -1"

    def test_contract_suite(self, capsys):
        code, _ = run_cli(capsys, "contract", "poincare")
        assert code == 0


class TestOutput:
    def test_bracket(self, capsys):
        code, out = run_cli(capsys, "bracket", "poincare", "K1", "K2")
        assert code == 0
        assert out.strip() == "omega*J3"

    def test_catalog_does_not_depend_on_the_working_directory(self, tmp_path):
        env = {k: v for k, v in os.environ.items() if k != "KINEXPAND_OUTPUT_DIR"}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "kinexpand.cli", "bracket", "poincare", "K1", "K2"],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "omega*J3\n", "")

    def test_normal_form(self, capsys):
        code, out = run_cli(capsys, "normal-form", "galilei_ext", "K1*P1")
        assert code == 0
        assert out.strip() == "P1*K1 - m*Xi"

    def test_bracket_and_normal_form_json(self, capsys):
        code, out = run_cli(
            capsys, "--format", "json", "bracket", "poincare", "K1", "K2"
        )
        assert code == 0
        assert json.loads(out) == {
            "command": "bracket",
            "schema_version": 1,
            "algebra": "poincare",
            "left": "K1",
            "right": "K2",
            "bracket": "omega*J3",
        }
        code, out = run_cli(
            capsys, "--format", "json", "normal-form", "galilei_ext", "K1*P1"
        )
        assert code == 0
        assert json.loads(out) == {
            "command": "normal-form",
            "schema_version": 1,
            "algebra": "galilei_ext",
            "expression": "K1*P1",
            "normal_form": "P1*K1 - m*Xi",
        }

    def test_json_schema_version(self, capsys):
        code, out = run_cli(capsys, "--format", "json", "casimir-check", "poincare")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["passed"] is True

    @pytest.mark.parametrize(
        "algebra,labels",
        [
            ("poincare", ["centrality: C1 in poincare", "centrality: C2 in poincare"]),
            ("galilei_ext", ["centrality: Xi in galilei_ext"]),
            (str(DATA_DIR / "galilei_ext.alg"), ["centrality: Xi in galilei_ext"]),
        ],
        ids=["poincare", "galilei_ext", "galilei_ext.alg"],
    )
    def test_casimir_check_labels(self, capsys, algebra, labels):
        code, out = run_cli(capsys, "--format", "json", "casimir-check", algebra)
        assert code == 0
        doc = json.loads(out)
        assert [c["label"] for c in doc["checks"]] == labels
        assert all(c["passed"] for c in doc["checks"])

    def test_json_is_deterministic(self, capsys):
        for argv in (["corpus"], ["expand", "poincare"], ["--seed", "7", "report"]):
            _, first = run_cli(capsys, "--format", "json", *argv)
            _, second = run_cli(capsys, "--format", "json", *argv)
            assert first == second, argv

    def test_expand_json_names_witness(self, capsys):
        code, out = run_cli(capsys, "--format", "json", "expand", "newton_hooke")
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["witness"] == {
            "m": "1", "xi": "1/2", "kappa": "-1", "a1": "1",
        }

    def test_output_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("KINEXPAND_OUTPUT_DIR", str(tmp_path))
        code, out = run_cli(capsys, "--format", "json", "corpus")
        assert code == 0
        written = (tmp_path / "corpus.json").read_text()
        assert written == out

    def test_unwritable_output_dir_exits_2_with_one_line(
        self, capsys, tmp_path, monkeypatch
    ):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("KINEXPAND_OUTPUT_DIR", str(blocker))
        code = main(["bracket", "galilei", "H", "K1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "-1*P1\n"
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("kinexpand bracket: cannot write bracket.text")


class TestReport:
    @pytest.mark.parametrize("seed", [1, 5])
    def test_report_matches_the_benchmark_copy(self, capsys, seed):
        code, out = run_cli(capsys, "--format", "json", "--seed", str(seed), "report")
        assert code == 0
        doc = json.loads(out)
        assert json.dumps(doc, indent=2) + "\n" == out
        assert doc["seed"] == doc["properties"]["seed"] == seed
        doc["seed"] = doc["properties"]["seed"] = None
        canonical = json.dumps(doc, indent=2) + "\n"
        assert canonical == EXPECTED_REPORT.read_text(encoding="utf-8")

    def test_each_algebra_is_checked_for_jacobi_once(self, capsys, monkeypatch):
        # a fresh catalog and fresh certificates, so the report loads every
        # algebra itself; loading runs the Jacobi check, and the structural
        # suite reuses that result
        monkeypatch.setattr(liealg, "_catalog_cache", {})
        fresh = functools.cache(expansion._certificate.__wrapped__)
        monkeypatch.setattr(expansion, "_certificate", fresh)
        calls = collections.Counter()
        jacobi_check = liealg.jacobi_check

        def counting(alg):
            calls[alg.name] += 1
            return jacobi_check(alg)

        for module in (liealg, algfile, checks, cli):
            if hasattr(module, "jacobi_check"):
                monkeypatch.setattr(module, "jacobi_check", counting)
        code, out = run_cli(capsys, "--format", "json", "--seed", "1", "report")
        assert code == 0
        assert calls == {name: 1 for name in liealg.catalog_names()}
        doc = json.loads(out)
        doc["seed"] = doc["properties"]["seed"] = None
        assert json.dumps(doc, indent=2) + "\n" == EXPECTED_REPORT.read_text(
            encoding="utf-8"
        )

    def test_full_report(self, capsys):
        code, out = run_cli(capsys, "--format", "json", "--seed", "12345", "report")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["seed"] == 12345
        assert doc["properties"]["failures"] == []
        assert {d["driver"] for d in doc["expansions"]} == {
            "theorem1", "euclid", "theorem2", "negative_nh",
        }


def test_readme_cli_examples_parse():
    # global options such as --format and --seed come before the subcommand
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.strip()]
    assert any("--seed" in line for line in lines)
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "kinexpand"
        assert cli.build_parser().parse_args(argv[1:]).command, line
