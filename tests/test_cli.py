"""Command-line interface: exit-status contract and output formats."""

import json

import pytest

from kinexpand.cli import main


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

    def test_bad_witness_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit):
            main(["expand", "poincare", "--witness", "omega=5"])

    def test_contract_param(self, capsys):
        code, out = run_cli(capsys, "contract", "poincare", "--param", "omega")
        assert code == 0
        assert "true" in out

    def test_contract_suite(self, capsys):
        code, _ = run_cli(capsys, "contract", "poincare")
        assert code == 0


class TestOutput:
    def test_bracket(self, capsys):
        code, out = run_cli(capsys, "bracket", "poincare", "K1", "K2")
        assert code == 0
        assert out.strip() == "omega*J3"

    def test_normal_form(self, capsys):
        code, out = run_cli(capsys, "normal-form", "galilei_ext", "K1*P1")
        assert code == 0
        assert out.strip() == "P1*K1 - m*Xi"

    def test_json_schema_version(self, capsys):
        code, out = run_cli(capsys, "--format", "json", "casimir-check", "poincare")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["passed"] is True

    def test_json_is_deterministic(self, capsys):
        _, first = run_cli(capsys, "--format", "json", "corpus")
        _, second = run_cli(capsys, "--format", "json", "corpus")
        assert first == second

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


class TestReport:
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
