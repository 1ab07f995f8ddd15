"""CLI parameter rules: the signature-declared registry, strict coercion, tolerance and
scenario-key validation, and the README's command examples."""

import inspect
import pathlib
import re
import shlex

import pytest

from slater_addition.cli import TARGETS, _TYPES, main, make_parser

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
K_HALF = ["eval", "bessel_k_half", "--param", "z=2"]
GOLDEN = ["--param", "B=0.13", "--param", "C=0.11", "--param", "k=0.17", "--param", "x2=0.23"]


class TestRegistry:
    def test_every_declared_parameter_has_a_type(self):
        declared = set()
        for target in TARGETS.values():
            declared |= set(list(inspect.signature(target.run).parameters)[1:])
        # a (half-integer Gamma order, integer 1F1 order) and C (complex) pass through as parsed
        assert declared - set(_TYPES) == {"a", "C"}
        assert set(_TYPES) <= declared

    def test_parser_is_built_once(self):
        assert make_parser() is make_parser()


class TestCoercion:
    @pytest.mark.parametrize("value", ["1.5", "true", "abc", "1+2i"])
    def test_int_parameter_must_be_integral(self, value, capsys):
        assert main(K_HALF + ["--param", f"n={value}"]) == 1
        assert "parameter n must be an integer" in capsys.readouterr().err

    def test_integral_float_is_an_int(self, capsys):
        assert main(K_HALF + ["--param", "n=1"]) == 0
        as_int = capsys.readouterr().out
        assert main(K_HALF + ["--param", "n=1.0"]) == 0
        assert capsys.readouterr().out == as_int

    def test_kummer_keeps_its_own_integer_check(self, capsys):
        assert main(["eval", "kummer_1f1", "--param", "a=2.9", "--param", "b=4",
                     "--param", "z=-0.7i"]) == 1
        assert "kummer_1f1 requires integers" in capsys.readouterr().err

    def test_gamma_keeps_half_integer_a(self, capsys):
        assert main(["compare", "upper_incomplete_gamma", "--param", "a=-2.5",
                     "--param", "z=1.5+0.5i", "--tol", "1e-9"]) == 0

    @pytest.mark.parametrize("value", ["no", "1", "0.0"])
    def test_bool_parameter_must_be_true_or_false(self, value, capsys):
        assert main(K_HALF + ["--param", "n=1", "--param", f"scaled={value}"]) == 1
        assert "parameter scaled must be true or false" in capsys.readouterr().err

    def test_bool_parameter_false_is_unscaled(self, capsys):
        assert main(K_HALF + ["--param", "n=1"]) == 0
        unscaled = capsys.readouterr().out
        assert main(K_HALF + ["--param", "n=1", "--param", "scaled=FALSE"]) == 0
        assert capsys.readouterr().out == unscaled


class TestTolerance:
    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_flag_must_be_finite_and_positive(self, tol, capsys):
        assert main(["compare", "yukawa_form", "--tol", tol] + GOLDEN) == 1
        captured = capsys.readouterr()
        assert "tol must be finite and > 0" in captured.err and captured.out == ""

    def test_scenario_tol_is_checked_too(self, tmp_path, capsys):
        scen = tmp_path / "case.scn"
        scen.write_text("target = yukawa_form\ntol = -1\nB = 0.13\nC = 0.11\nk = 0.17\nx2 = 0.23\n")
        assert main(["compare", "--scenario", str(scen)]) == 1
        assert "tol must be finite and > 0" in capsys.readouterr().err


class TestScenarioKeys:
    def test_digits_is_not_a_scenario_key(self, tmp_path, capsys):
        scen = tmp_path / "case.scn"
        scen.write_text("target = yukawa_form\ndigits = 3\nB = 0.13\nC = 0.11\nk = 0.17\nx2 = 0.23\n")
        assert main(["eval", "--scenario", str(scen)]) == 1
        assert "unknown parameter(s) for yukawa_form: digits" in capsys.readouterr().err

    def test_unknown_table_format_is_rejected(self, tmp_path, capsys):
        scen = tmp_path / "case.scn"
        scen.write_text("target = theorem1\nformat = yaml\nB = 0.13\nC = 0.11\nk = 0.17\nx2 = 0.23\n")
        assert main(["table", "--scenario", str(scen)]) == 1
        captured = capsys.readouterr()
        assert "unknown table format 'yaml'" in captured.err and captured.out == ""

    def test_scenario_json_format_is_honoured(self, tmp_path, capsys):
        scen = tmp_path / "case.scn"
        scen.write_text("target = theorem1\nformat = json\nB = 0.13\nC = 0.11\nk = 0.17\nx2 = 0.23\n")
        assert main(["table", "--scenario", str(scen)]) == 0
        assert capsys.readouterr().out.startswith("[")


def test_theorem5_closed_form_keeps_its_imaginary_part(capsys):
    # B k^2 + C < 0: the closed form and the series are both complex
    rc = main(["compare", "theorem5", "--param", "B=0.05", "--param", "C=-0.11",
               "--param", "k=0.5", "--param", "x2=0.3"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "oracle = 0.995615707-0.0935380304i" in out


def _readme_commands() -> list[str]:
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        for line in re.sub(r"\\\n\s*", "", block).splitlines():
            if line.startswith("slater-addition "):
                commands.append(line)
    return commands


@pytest.mark.parametrize("command", _readme_commands())
def test_readme_command_runs(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the table example writes blocks.json
    assert main(shlex.split(command)[1:]) == 0, capsys.readouterr()


def test_readme_has_commands():
    assert len(_readme_commands()) >= 5
