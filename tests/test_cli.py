"""CLI: exit codes, formats, determinism, oracle wiring, target coverage."""

import json
import subprocess
import sys

import pytest

from slater_addition import amplitudes, ellipsoidal, specfun, theorems
from slater_addition import reproduce
from slater_addition.cli import EXIT_ERROR, TARGETS, main, parse_value

GOLDEN_ARGS = ["--param", "B=0.13", "--param", "C=0.11", "--param", "k=0.17",
               "--param", "x2=0.23"]


class TestParsing:
    def test_parse_value_types(self):
        assert parse_value("3") == 3 and isinstance(parse_value("3"), int)
        assert parse_value("0.25") == 0.25
        assert parse_value("1.5+0.5i") == 1.5 + 0.5j
        assert parse_value("-2i") == -2j
        assert parse_value("true") is True
        assert parse_value("C4") == "C4"

    def test_scenario_file(self, tmp_path, capsys):
        scen = tmp_path / "case.scn"
        scen.write_text(
            "# the base-series golden point\n"
            "target = theorem1\n"
            "B = 0.13\nC = 0.11\nk = 0.17\nx2 = 0.23  # transposed tuple\n"
        )
        rc = main(["eval", "--scenario", str(scen)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2.7436" in out and "converged = true" in out

    def test_param_overrides_scenario(self, tmp_path, capsys):
        scen = tmp_path / "case.scn"
        scen.write_text("target = yukawa_form\nB = 0.13\nC = 0.11\nk = 0.17\nx2 = 0.23\n")
        rc = main(["eval", "--scenario", str(scen), "--param", "k=0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2.7936" in out  # k = 0 kills B: e^{-x2 sqrt(C)}/sqrt(C)


class TestEval:
    def test_theorem1_golden(self, capsys):
        rc = main(["eval", "theorem1"] + GOLDEN_ARGS)
        out = capsys.readouterr().out
        assert rc == 0
        assert "value = 2.7436" in out and "terms_used" in out

    def test_yukawa_form(self, capsys):
        rc = main(["eval", "yukawa_form"] + GOLDEN_ARGS)
        assert rc == 0
        assert "2.7436" in capsys.readouterr().out

    def test_digits_flag(self, capsys):
        main(["eval", "yukawa_form", "--digits", "3"] + GOLDEN_ARGS)
        assert "value = 2.74\n" in capsys.readouterr().out

    def test_radius_not_k_decides_exit_code(self, capsys):
        # k = 1.5 at |B k^2| / |C| = 0.375 converges; at 2.66 it is returned flagged
        inside = ["--param", "B=0.1", "--param", "C=0.6", "--param", "k=1.5", "--param", "x2=0.7"]
        assert main(["eval", "theorem1"] + inside) == 0
        assert "converged = true" in capsys.readouterr().out
        outside = ["--param", "B=0.13", "--param", "C=0.11", "--param", "k=1.5",
                   "--param", "x2=0.17"]
        assert main(["eval", "theorem1"] + outside) == 2
        assert "converged = false" in capsys.readouterr().out

    def test_usage_errors(self, capsys):
        assert main(["eval", "not_a_target"]) == 1
        assert main(["eval", "theorem1", "--param", "B=0.1"]) == 1  # missing params
        assert main(["eval", "theorem1", "--param", "B=0.1", "--param", "C=1",
                     "--param", "k=0.1", "--param", "x2=1", "--param", "bogus=3"]) == 1
        err = capsys.readouterr().err
        assert "bogus" in err

    def test_quadrature_target(self, capsys):
        rc = main(["eval", "s1_tau_oracle", "--param", "eta1=0.82", "--param", "eta2=0.66",
                   "--param", "x2=0.36", "--param", "k=0.19"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "6.4564" in out and "evaluations" in out

    def test_stall_target(self, capsys):
        rc = main(["eval", "t_abc_stall", "--param", "R=0.11", "--param", "n_max=20"])
        out = capsys.readouterr().out
        assert rc in (0, 2)
        assert "stalled = true" in out

    def test_cos_power_target(self, capsys):
        rc = main(["eval", "cos_power_to_legendre", "--param", "j=2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "P_0: 0.333333333333" in out and "P_2: 0.666666666667" in out


class TestCompare:
    def test_theorem3_residual_after_five_blocks(self, capsys):
        rc = main(["compare", "theorem3", "--param", "eta1=0.11", "--param", "eta2=0.13",
                   "--param", "x2=0.17", "--param", "n_max=8"])
        out = capsys.readouterr().out
        assert rc == 2  # residual ~0.116 exceeds the default tolerance
        assert "abs_error = 0.116" in out

    def test_cheshire_within_tol(self, capsys):
        rc = main(["compare", "cheshire", "--param", "eta1=0.82", "--param", "x2=0.036",
                   "--param", "k=0.019", "--tol", "1e-6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "within_tol = true" in out

    def test_t_abc_series_vs_exact(self, capsys):
        rc = main(["compare", "t_abc_series", "--param", "R=0.11", "--param", "n_max=5",
                   "--tol", "1e-4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0.36006" in out and "0.360071" in out

    def test_no_oracle_is_usage_error(self, capsys):
        assert main(["compare", "meijer_g_0313", "--param", "j=0", "--param", "mu=-0.5",
                     "--param", "arg=4.0"]) == 1
        assert "no registered oracle" in capsys.readouterr().err

    def test_theorem5_and_theorem6_closed_form_oracles(self, capsys):
        base = ["--param", "B=0.13", "--param", "C=0.11", "--param", "k=0.23",
                "--param", "x2=0.17"]
        assert main(["compare", "theorem5", "--tol", "1e-8"] + base) == 0
        out = capsys.readouterr().out
        assert "oracle = 0.943538" in out
        assert main(["compare", "theorem6", "--param", "j=2", "--tol", "1e-3"] + base) == 0
        out = capsys.readouterr().out
        assert "oracle = 0.322570" in out

    def test_theorem6_negative_c(self, capsys):
        assert main(["compare", "theorem6", "--param", "j=2", "--param", "B=0.05",
                     "--param", "C=-0.11", "--param", "k=0.5", "--param", "x2=0.3",
                     "--tol", "1e-10"]) == 0
        assert "within_tol = true" in capsys.readouterr().out

    def test_term_pair_oracle(self, capsys):
        rc = main(["compare", "s1_general_term_gamma", "--param", "n=0",
                   "--param", "eta1=0.82", "--param", "eta2=0.66", "--param", "x2=0.36",
                   "--param", "k=0.19", "--tol", "1e-6"])
        assert rc == 0

    def test_gamma_form_past_term_zero_names_the_quadrature(self, capsys):
        rc = main(["compare", "s1_general_term_gamma", "--param", "n=1",
                   "--param", "eta1=0.82", "--param", "eta2=0.66", "--param", "x2=0.36",
                   "--param", "k=0.19", "--tol", "1e-6"])
        assert rc == EXIT_ERROR
        assert "s1_series_n_term" in capsys.readouterr().err

    def test_quadrature_term_past_zero_has_no_oracle(self, capsys):
        rc = main(["compare", "s1_series_n_term", "--param", "n=1",
                   "--param", "eta1=0.82", "--param", "eta2=0.66", "--param", "x2=0.36",
                   "--param", "k=0.19", "--tol", "1e-6"])
        assert rc == EXIT_ERROR
        err = capsys.readouterr().err
        assert "has an oracle at n = 0 only" in err and "use s1_series_n_term" not in err


class TestTable:
    def test_csv_golden_terms_and_determinism(self, capsys, tmp_path):
        scen = tmp_path / "golden.scn"
        scen.write_text("target = theorem1\nB = 0.13\nC = 0.11\nk = 0.17\nx2 = 0.23\n")
        argv = ["table", "--scenario", str(scen)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second  # identical scenario files: byte-identical output
        lines = first.strip().split("\n")
        assert lines[0] == "index,term_re,term_im,partial_re,partial_im,ref_re,ref_im,abs_err,rel_err"
        terms = [float(line.split(",")[1]) for line in lines[1:5]]
        assert terms == pytest.approx([2.79367, -0.051348, 0.001318, -0.000038], abs=5e-6)

    def test_degenerate_single_row(self, capsys):
        rc = main(["table", "theorem1", "--param", "B=0", "--param", "C=0.11",
                   "--param", "k=0.23", "--param", "x2=0.17"])
        out = capsys.readouterr().out
        assert rc == 0
        assert len(out.strip().split("\n")) == 2  # header + one row

    def test_json_format(self, capsys):
        rc = main(["table", "theorem4", "--format", "json", "--param", "eta2=0.13",
                   "--param", "x2=0.17", "--param", "n_max=6"])
        out = capsys.readouterr().out
        assert rc == 0
        rows = json.loads(out)
        assert [r["term_re"] for r in rows[:4]] == pytest.approx(
            [46.3079, 0.623416, 0.136682, 0.0591038], abs=5e-4)
        assert list(rows[0].keys())[:5] == ["index", "term_re", "term_im",
                                            "partial_re", "partial_im"]

    def test_out_file(self, tmp_path, capsys):
        dest = tmp_path / "table.csv"
        rc = main(["table", "theorem1", "--out", str(dest)] + GOLDEN_ARGS)
        assert rc == 0
        text = dest.read_text()
        assert text.startswith("index,") and "\r" not in text

    def test_unwritable_path(self, tmp_path, capsys):
        rc = main(["table", "theorem1", "--out", str(tmp_path)] + GOLDEN_ARGS)
        assert rc == 1

    def test_table_without_reference_has_no_ref_columns(self, capsys):
        rc = main(["table", "theorem1_term", "--param", "n=0"] + GOLDEN_ARGS)
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == "index,term_re,term_im,partial_re,partial_im"


class TestReproduce:
    def test_filtered_subset_passes(self, capsys):
        rc = main(["reproduce", "--filter", "theorem4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[PASS] theorem4-blocks-and-total" in out

    def test_unmatched_filter_is_error(self, capsys):
        assert main(["reproduce", "--filter", "zzz-no-such-check"]) == 1

    def test_perturbed_golden_constant_fails_only_that_check(self, monkeypatch):
        perturbed = tuple(v * 1.01 for v in reproduce._T1_TERMS)
        monkeypatch.setattr(reproduce, "_T1_TERMS", perturbed)
        results = {r.name: r.passed for r in reproduce.run_checks("theorem1")}
        assert results["theorem1-golden-terms"] is False
        assert results["theorem1-golden-sum"] is True

    def test_full_suite_exit_code(self, capsys):
        rc = main(["reproduce"])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"{len(reproduce.CHECKS)}/{len(reproduce.CHECKS)} checks passed" in out

    def test_failing_check_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(reproduce, "CHECKS",
                            (("always-red", lambda: (False, "forced")),))
        assert main(["reproduce"]) == 3
        assert "[FAIL] always-red" in capsys.readouterr().out


class TestCoverage:
    def test_every_public_operation_reachable(self):
        required = set()
        for module, skip in (
            (specfun, {"factorial", "double_factorial"}),
            (theorems, {"YukawaFormParams", "TruncationPolicy", "SeriesEvaluation",
                        "CorollaryConfig", "COROLLARY_VARIANTS", "accumulate_series"}),
            (amplitudes, {"SlaterPair"}),
            (ellipsoidal, {"EllipsoidalParams", "StallReport"}),
        ):
            required |= set(module.__all__) - skip
        covered = set()
        for target in TARGETS.values():
            covered |= set(target.covers)
        missing = required - covered
        assert not missing, f"operations unreachable from the CLI: {sorted(missing)}"

    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "slater_addition.cli", "reproduce", "--filter", "k-half"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "[PASS] property-k-half-closed-form" in proc.stdout


# canned parameter sets exercising every registered target end to end
SMOKE = {
    "yukawa_form": (["--param", "B=0.13", "--param", "C=0.11", "--param", "k=0.17",
                     "--param", "x2=0.23"], "1e-6"),
    "theorem1_term": (["--param", "n=1"] + GOLDEN_ARGS, None),
    "theorem1": (GOLDEN_ARGS, "1e-6"),
    "theorem5": (["--param", "B=0.13", "--param", "C=0.11", "--param", "k=0.23",
                  "--param", "x2=0.17"], "1e-8"),
    "theorem6": (["--param", "j=1", "--param", "B=0.13", "--param", "C=0.11",
                  "--param", "k=0.23", "--param", "x2=0.17"], "1e-4"),
    "corollary": (["--param", "variant=C4", "--param", "eta=0.13", "--param", "x1=0.3",
                   "--param", "x2=0.17", "--param", "cos_theta=0.4"], "1e-6"),
    "corollary1_legendre": (["--param", "eta=0.4", "--param", "x1=0.1", "--param", "x2=0.8",
                             "--param", "cos_theta=0.3"], "1e-6"),
    "two_range_mos": (["--param", "eta=0.13", "--param", "x1=0.3", "--param", "x2=0.17",
                       "--param", "cos_theta=0.4", "--param", "n_terms=40"], "1e-7"),
    "s1_coulomb": (["--param", "eta1=1", "--param", "x2=2"], "1e-5"),
    "s1_two_slater": (["--param", "eta1=0.11", "--param", "eta2=0.13",
                       "--param", "x2=0.17"], "1e-5"),
    "s1_equal_eta": (["--param", "eta2=0.66", "--param", "x2=0.36"], "1e-8"),
    "s1_tau_oracle": (["--param", "eta1=0.82", "--param", "eta2=0.66", "--param", "x2=0.36",
                       "--param", "k=0.19"], None),
    "s1_series_n_term": (["--param", "n=0", "--param", "eta1=0.82", "--param", "eta2=0.66",
                          "--param", "x2=0.36", "--param", "k=0.19"], "1e-6"),
    "s1_n0_erf": (["--param", "eta1=0.82", "--param", "eta2=0.66", "--param", "x2=0.36",
                   "--param", "k=0.19"], "1e-8"),
    "s1_general_term_gamma": (["--param", "n=0", "--param", "eta1=0.82", "--param",
                               "eta2=0.66", "--param", "x2=0.36", "--param", "k=0.19"],
                              "1e-5"),
    "cheshire": (["--param", "eta1=0.82", "--param", "x2=0.36", "--param", "k=0.19"],
                 "1e-6"),
    "theorem2_angular": (["--param", "eta2=1", "--param", "x1=1", "--param", "x2=1"],
                         "1e-8"),
    "theorem3": (["--param", "eta1=0.11", "--param", "eta2=0.13", "--param", "x2=0.17",
                  "--param", "n_max=8"], None),
    # the reconstruction blocks decay algebraically in the tail (~n^-2), so the
    # closed-form gap after 31 blocks sits at ~4e-4 relative
    "theorem4": (["--param", "eta2=0.13", "--param", "x2=0.17", "--param", "n_max=60"],
                 "5e-4"),
    "corollary6_n0": (["--param", "eta1=1", "--param", "eta2=2"], "1e-5"),
    "t_abc_exact": (["--param", "R=0.11"], "1e-5"),
    "t_abc_oracle": (["--param", "R=0.11"], None),
    "t_abc_series": (["--param", "R=0.11", "--param", "n_max=8"], None),
    "t_abc_stall": (["--param", "R=0.11"], None),
    "bessel_k_half": (["--param", "n=1", "--param", "z=2"], "1e-8"),
    "bessel_i_half": (["--param", "n=2", "--param", "x=0.11"], "1e-7"),
    "legendre_p": (["--param", "n=4", "--param", "u=-0.6"], "1e-12"),
    "cos_power_to_legendre": (["--param", "j=3"], None),
    "upper_incomplete_gamma": (["--param", "a=-3", "--param", "z=1.5+0.5i"], "1e-9"),
    "erf_complex": (["--param", "z=0.5+0.5i"], "1e-9"),
    "kummer_1f1": (["--param", "a=2", "--param", "b=4", "--param", "z=-0.7i"], "1e-9"),
    "hermite_h": (["--param", "j=4", "--param", "x=0.5"], "1e-12"),
    "exp_integral_ei": (["--param", "x=-1"], "1e-10"),
    "meijer_g_0313": (["--param", "j=0", "--param", "mu=-0.5", "--param", "arg=4"], None),
}


class TestTargetSmoke:
    def test_smoke_table_covers_registry(self):
        assert set(SMOKE) == set(TARGETS)

    @pytest.mark.parametrize("name", sorted(SMOKE))
    def test_eval_every_target(self, name, capsys):
        args, _ = SMOKE[name]
        assert main(["eval", name] + args) in (0, 2)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("name", sorted(n for n in SMOKE if SMOKE[n][1] is not None))
    def test_compare_every_oracled_target(self, name, capsys):
        args, tol = SMOKE[name]
        rc = main(["compare", name, "--tol", tol] + args)
        out = capsys.readouterr().out
        assert rc == 0, out
