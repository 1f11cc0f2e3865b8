"""CLI behavior: exit codes, output formats, stream discipline."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import BAD_CARD_FILES, HUGE_INT
from geocard.cli import main
from geocard.ec7 import (DESIGN_APPROACHES, bundled_scenario_path,
                         check_footing_uls_ec7, design_footing_width_ec7,
                         load_scenario)
from geocard.engine import strict_json
from geocard.report import format_sig
from test_ec7 import OVERFLOWING, overflowing_scenario

SCENARIO = bundled_scenario_path()

TERZAGHI_EVAL = [
    "eval", "BEARING_CAPACITY_TERZAGHI", "general_shear_failure_strip",
    "--in", "phi_prime=30 deg", "--in", "c_prime=0 kPa",
    "--in", "gamma=18 kN/m^3", "--in", "B=2 m", "--in", "q=18 kPa",
]


class TestValidate:
    def test_bundled_catalog_is_clean(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok ") == 4

    def test_bad_card_names_the_target(self, tmp_path, capsys):
        card = json.loads(
            (Path(__file__).parents[1] /
             "src/geocard/data/catalog/bearing_capacity_terzaghi.json")
            .read_text())
        card["variants"][0]["equations"][0]["sympy"] = "exp(pi*tan(D_f))"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(card))
        assert main(["validate", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "D_f" in out

    def test_one_argument_min_fails_validation(self, tmp_path, capsys):
        card = json.loads(
            (Path(__file__).parents[1] /
             "src/geocard/data/catalog/bearing_capacity_terzaghi.json")
            .read_text())
        q_ult = card["variants"][0]["equations"][3]
        q_ult["sympy"] = f"Min({q_ult['sympy']})"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(card))
        assert main(["validate", str(bad)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL bad.json: ") and "Min takes 2+" in out

    def test_dimension_finding_fails_validation(self, tmp_path, capsys):
        card = json.loads(
            (Path(__file__).parents[1] /
             "src/geocard/data/catalog/bearing_capacity_terzaghi.json")
            .read_text())
        card["variants"][0]["equations"][3]["sympy"] = "B"  # kPa target, m expr
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(card))
        assert main(["validate", str(bad)]) == 1
        assert "q_ult" in capsys.readouterr().out


    def test_bad_card_files_fail_one_by_one(self, bad_card_dir, capsys):
        assert main(["validate", str(bad_card_dir)]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == len(BAD_CARD_FILES)
        for name in BAD_CARD_FILES:
            assert sum(line.startswith(f"FAIL {name}: ") for line in lines) == 1
        assert f"{len(BAD_CARD_FILES)} of {len(BAD_CARD_FILES)}" in captured.err
        assert "Traceback" not in captured.err

    def test_bad_cards_match_golden_file(self, capsys):
        """One card per tokenizer error and per dimension-audit finding."""
        data = Path(__file__).parent / "data"
        assert main(["validate", str(data / "bad_cards")]) == 1
        expected = (data / "golden_validate_bad_cards.txt").read_text("utf-8")
        assert capsys.readouterr().out == expected

    def test_validate_directory(self, tmp_path, capsys):
        good = (Path(__file__).parents[1] /
                "src/geocard/data/catalog/bearing_capacity_vesic.json")
        (tmp_path / "vesic.json").write_text(good.read_text())
        assert main(["validate", str(tmp_path)]) == 0
        assert "BEARING_CAPACITY_VESIC" in capsys.readouterr().out

    def test_nonexistent_path_is_usage_error(self, capsys):
        assert main(["validate", "/no/such/path.json"]) == 2

    def test_unproduced_intermediate_fails_validation(self, tmp_path, capsys):
        card = json.loads(
            (Path(__file__).parents[1] /
             "src/geocard/data/catalog/bearing_capacity_terzaghi.json")
            .read_text())
        card["variables"].append({"key": "m", "name": "missing",
                                  "role": "intermediate", "unit": "kPa"})
        card["variants"][0]["equations"][-1]["sympy"] += " + m"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(card))
        assert main(["validate", str(bad)]) == 1
        assert "FAIL bad.json: variable 'm'" in capsys.readouterr().out

    def test_unproduced_variable_names_the_broken_variant(self, tmp_path, capsys):
        card = json.loads(
            (Path(__file__).parents[1] /
             "src/geocard/data/catalog/bearing_capacity_terzaghi.json")
            .read_text())
        assert [v["id"] for v in card["variants"]] == [
            "general_shear_failure_strip", "general_shear_failure_square"]
        card["variables"].append({"key": "m", "name": "missing",
                                  "role": "intermediate", "unit": "kPa"})
        card["variants"][1]["equations"][-1]["sympy"] += " + m"
        target = card["variants"][1]["equations"][-1]["target"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(card))
        assert main(["validate", str(bad)]) == 1
        fail = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("FAIL")]
        assert len(fail) == 1
        assert "'general_shear_failure_square'" in fail[0]
        assert f"{target!r}" in fail[0]
        assert "strip" not in fail[0]

    def test_duplicate_card_ids_fail_like_the_catalog(self, tmp_path, capsys):
        good = (Path(__file__).parents[1] /
                "src/geocard/data/catalog/bearing_capacity_vesic.json")
        (tmp_path / "a.json").write_text(good.read_text())
        (tmp_path / "b.json").write_text(good.read_text())
        assert main(["validate", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "ok   a.json: BEARING_CAPACITY_VESIC" in out
        assert "FAIL b.json: duplicate card id BEARING_CAPACITY_VESIC" in out

    def test_equation_condition_fails_validation(self, tmp_path, capsys):
        good = (Path(__file__).parents[1] /
                "src/geocard/data/catalog/bearing_capacity_vesic.json")
        card = json.loads(good.read_text())
        card["variants"][0]["equations"][0]["condition"] = "phi_prime > 0"
        (tmp_path / "cond.json").write_text(json.dumps(card))
        assert main(["validate", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith(
            "FAIL cond.json: $.variants[0].equations[0].condition: ")
        assert "Piecewise" in out

    def test_non_finite_default_fails_validation(self, tmp_path, capsys):
        good = (Path(__file__).parents[1] /
                "src/geocard/data/catalog/bearing_capacity_vesic.json")
        card = json.loads(good.read_text())
        param = next(i for i, v in enumerate(card["variables"])
                     if v["role"] == "param")
        card["variables"][param]["default"] = "@"
        (tmp_path / "nan.json").write_text(json.dumps(card).replace('"@"', "NaN"))
        assert main(["validate", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"FAIL nan.json: $.variables[{param}].default: ")
        assert "finite" in out


class TestEval:
    def test_report_contains_sources(self, capsys):
        assert main(TERZAGHI_EVAL) == 0
        out = capsys.readouterr().out
        assert "Terzaghi, K. (1943)" in out
        assert "## Sources" in out

    def test_json_format_is_canonical_trace(self, capsys):
        assert main(TERZAGHI_EVAL + ["--format", "json"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert list(body) == ["request", "steps", "outputs", "sources",
                              "diagnostics"]
        assert body["outputs"]["q_ult"]["value"] == pytest.approx(
            734.4649528166381, rel=1e-12)

    @pytest.mark.parametrize("fmt, golden", [
        ("report", "golden_cli_terzaghi_report.md"),
        ("json", "golden_cli_terzaghi.json"),
    ])
    def test_output_matches_golden_file(self, fmt, golden, capsys):
        assert main(TERZAGHI_EVAL + ["--format", fmt]) == 0
        expected = (Path(__file__).parent / "data" / golden).read_text("utf-8")
        assert capsys.readouterr().out == expected

    def test_report_values_match_trace(self, capsys):
        """Every printed step value equals the trace value at 4 sig figs."""
        main(TERZAGHI_EVAL + ["--format", "json"])
        trace = json.loads(capsys.readouterr().out)
        main(TERZAGHI_EVAL)
        report = capsys.readouterr().out
        from geocard.report import format_sig
        for step in trace["steps"]:
            assert format_sig(step["value"]) in report

    def test_missing_input_lists_keys(self, capsys):
        code = main(["eval", "BEARING_CAPACITY_TERZAGHI",
                     "general_shear_failure_strip", "--in", "phi_prime=30 deg"])
        assert code == 1
        err = capsys.readouterr().err
        assert "missing required input" in err
        assert "gamma" in err

    @pytest.mark.parametrize("fmt", ["report", "json"])
    def test_overflowing_result_is_domain_error(self, fmt, capsys):
        argv = [arg.replace("gamma=18 kN/m^3", "gamma=1e300 kN/m^3")
                .replace("B=2 m", "B=1e300 m") for arg in TERZAGHI_EVAL]
        assert argv != TERZAGHI_EVAL
        assert main(argv + ["--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "q_ult" in captured.err
        assert "Traceback" not in captured.err

    def test_unknown_card_is_domain_error(self, capsys):
        assert main(["eval", "NOPE", "v"]) == 1
        assert "unknown method" in capsys.readouterr().err


class TestEc7Commands:
    def test_design_all_prints_table(self, capsys):
        assert main(["ec7", "design", "--scenario", SCENARIO, "--da", "all"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines()
                 if l.startswith(("DA1", "DA2", "DA3"))]
        assert [l.split()[0] for l in lines] == ["DA1-C1", "DA1-C2", "DA2", "DA3"]
        assert "governing: DA3" in out

    def test_check_at_width(self, capsys):
        assert main(["ec7", "check", "--scenario", SCENARIO,
                     "--da", "DA1-C2", "--B", "1.497"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_check_json_format(self, capsys):
        assert main(["ec7", "check", "--scenario", SCENARIO,
                     "--da", "DA2", "--B", "1.3", "--format", "json"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body[0]["design_approach"] == "DA2"
        assert "trace" in body[0]

    @pytest.mark.parametrize("command, golden", [
        (["design"], "golden_cli_ec7_design.json"),
        (["check", "--B", "2.0"], "golden_cli_ec7_check.json")],
        ids=["design", "check"])
    def test_json_matches_golden_file(self, command, golden):
        """The console-script steps of CI: each reply, byte for byte."""
        root = Path(__file__).parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "geocard.cli", "ec7", command[0],
             "--scenario", "src/geocard/data/scenarios/jrc_a3.json",
             "--da", "all", *command[1:], "--format", "json"],
            cwd=root, capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (root / "tests/data" / golden).read_bytes()

    @pytest.mark.parametrize("command", [["check", "--B", "1.5"], ["design"]])
    @pytest.mark.parametrize("key", ["ecc", "B"])
    def test_unknown_scenario_field_is_domain_error(self, command, key,
                                                    tmp_path, capsys):
        scenario = json.loads(Path(SCENARIO).read_text())
        scenario[key] = "0.3 m"
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(scenario))
        assert main(["ec7", command[0], "--scenario", str(path),
                     "--da", "DA2", *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: $.{key}: unknown field\n"

    def test_missing_scenario_file_is_usage_error(self, capsys):
        assert main(["ec7", "design", "--scenario", "/no/file.json",
                     "--da", "all"]) == 2

    def test_non_utf8_scenario_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_bytes(b'{"L": "\xff"}')
        assert main(["ec7", "check", "--scenario", str(path), "--da", "DA2",
                     "--B", "1.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read scenario file {path}")
        assert "Traceback" not in captured.err

    def test_over_long_integer_scenario_is_domain_error(self, tmp_path,
                                                        capsys):
        path = tmp_path / "huge.json"
        path.write_text(Path(SCENARIO).read_text().replace(
            '"Q_k": "967.10 kN"', f'"Q_k": {HUGE_INT}'))
        assert main(["ec7", "check", "--scenario", str(path), "--da", "DA2",
                     "--B", "1.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: $: invalid JSON: ")
        assert "Traceback" not in captured.err

    def test_unknown_da_is_domain_error(self, capsys):
        assert main(["ec7", "design", "--scenario", SCENARIO,
                     "--da", "DA9"]) == 1

    def test_no_bracket_reported(self, tmp_path, capsys):
        scenario = json.loads(Path(SCENARIO).read_text())
        scenario["G_k_col"] = "0 kN"
        scenario["Q_k"] = "0 kN"
        scenario["gamma_sw"] = "0 kN/m^3"
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(scenario))
        assert main(["ec7", "design", "--scenario", str(path),
                     "--da", "DA2"]) == 1
        assert "utilization does not cross" in capsys.readouterr().err

    @pytest.mark.parametrize("da", ["DA2", "all"])
    def test_non_finite_json_is_domain_error(self, da, tmp_path, capsys):
        scenario = json.loads(Path(SCENARIO).read_text())
        scenario["G_k_col"] = "1.7e308 kN"  # finite; the design action is not
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(scenario))
        assert main(["ec7", "check", "--scenario", str(path), "--da", da,
                     "--B", "1.5", "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "finite" in captured.err
        assert "Traceback" not in captured.err


    @pytest.mark.parametrize("fmt", ["summary", "json"])
    @pytest.mark.parametrize("changes, da, key", OVERFLOWING)
    def test_overflowing_check_names_the_field(self, changes, da, key, fmt,
                                               tmp_path, capsys):
        path = tmp_path / "overflow.json"
        path.write_text(overflowing_scenario(changes))
        assert main(["ec7", "check", "--scenario", str(path), "--da", da,
                     "--B", "1.5", "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {key!r} is not a finite number\n"


class TestEc7JsonMatchesTheReference:
    """``--format json`` splices each result's to_json into the list; the
    text must be strict_json of the results' to_dict() list."""

    @staticmethod
    def reference(results) -> str:
        return strict_json([r.to_dict() for r in results]) + "\n"

    @pytest.mark.parametrize("B", ["0.3", "2.0", "40"])
    def test_check(self, B, tmp_path, capsys):
        """A check without resistance (phi' = c' = 0, no overburden) has an
        infinite utilization, written as null."""
        scenario = json.loads(Path(SCENARIO).read_text())
        scenario.update(phi_prime_k="0 deg", c_prime_k="0 kPa",
                        surcharge_model="none")
        path = tmp_path / "no_resistance.json"
        path.write_text(json.dumps(scenario))
        for scenario_file in (SCENARIO, str(path)):
            assert main(["ec7", "check", "--scenario", scenario_file, "--da", "all",
                         "--B", B, "--format", "json"]) == 0
            loaded = load_scenario(Path(scenario_file).read_text())
            results = [check_footing_uls_ec7(loaded, da, float(B))
                       for da in DESIGN_APPROACHES]
            assert capsys.readouterr().out == self.reference(results)
        assert {r.utilization for r in results} == {math.inf}
        assert [r["utilization"] for r in json.loads(self.reference(results))] == [None] * 4

    @pytest.mark.parametrize("da", ["DA3", "all"])
    def test_design(self, da, capsys):
        assert main(["ec7", "design", "--scenario", SCENARIO, "--da", da,
                     "--tolerance", "0.01", "--format", "json"]) == 0
        scenario = load_scenario(Path(SCENARIO).read_text())
        results = [design_footing_width_ec7(scenario, d, tolerance=0.01)
                   for d in (DESIGN_APPROACHES if da == "all" else [da])]
        assert capsys.readouterr().out == self.reference(results)


class TestServeSubprocess:
    """End-to-end process checks: piping, EOF, parse errors."""

    def _run(self, stdin_text: str):
        return subprocess.run(
            [sys.executable, "-m", "geocard.cli", "serve"],
            input=stdin_text, capture_output=True, text=True, timeout=60)

    def test_handshake_and_clean_eof(self):
        proc = self._run(
            '{"jsonrpc":"2.0","id":0,"method":"initialize","params":{}}\n')
        assert proc.returncode == 0
        response = json.loads(proc.stdout.splitlines()[0])
        assert "instructions" in response["result"]

    def test_malformed_line_then_continue(self):
        proc = self._run(
            "not json\n"
            '{"jsonrpc":"2.0","id":5,"method":"ping"}\n')
        lines = proc.stdout.splitlines()
        assert json.loads(lines[0])["error"]["code"] == -32700
        assert json.loads(lines[1])["id"] == 5
        assert proc.returncode == 0

    def test_empty_stdin_exits_zero(self):
        assert self._run("").returncode == 0


class TestAsciiStdout:
    """A character stdout cannot encode is written as a backslash escape,
    so the command runs to its own exit status."""

    def _run(self, *args):
        root = Path(__file__).parents[1]
        return subprocess.run(
            [sys.executable, "-m", "geocard.cli", *args], cwd=root,
            env=dict(os.environ, PYTHONIOENCODING="ascii"),
            capture_output=True, timeout=60)

    def test_validate_reports_every_card(self):
        proc = self._run("validate", "tests/data/bad_cards")
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr
        golden = (Path(__file__).parent / "data" /
                  "golden_validate_bad_cards.txt").read_text("utf-8")
        assert proc.stdout == golden.encode("ascii", "backslashreplace")

    def test_eval_report_echoes_an_escaped_unit(self):
        args = [a.replace("kN/m^3", "kN/m\u00b3") for a in TERZAGHI_EVAL]
        proc = self._run(*args, "--format", "report")
        assert proc.returncode == 0, proc.stderr
        golden = (Path(__file__).parent / "data" /
                  "golden_cli_terzaghi_report.md").read_bytes()
        assert proc.stdout == golden.replace(b"kN/m^3", b"kN/m\\xb3")


class TestUsage:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    @pytest.mark.parametrize("flag, pair", [
        ("--in", "phi_prime"), ("--in", "=30 deg"),
        ("--override", "k_factor"), ("--override", " =2"),
    ])
    def test_malformed_key_value_is_usage_error(self, flag, pair, capsys):
        assert main(TERZAGHI_EVAL + [flag, pair]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"usage error: {flag} must be KEY=VALUE, got {pair!r}\n"


class TestFormatSig:
    """Reports print 4 significant figures, in plain notation from 1e-4
    up to 1e7."""

    @pytest.mark.parametrize("value, text", [
        (0.0, "0"), (-0.0, "0"),
        (734.46, "734.5"), (-734.46, "-734.5"),
        (1e-5, "1e-05"), (-1e-5, "-1e-05"), (0.00012345, "0.0001234"),
        (9999.5, "10000"), (10000.0, "10000"), (12000.0, "12000"),
        (-12000.0, "-12000"), (12345.6, "12350"), (43523.4, "43520"),
        (999950.0, "1000000"), (9999400.0, "9999000"),
        (1e7, "1e+07"), (-1.2345e7, "-1.234e+07"),
    ])
    def test_format(self, value, text):
        assert format_sig(value) == text

    def test_report_prints_large_results_in_full(self, capsys):
        argv = [arg.replace("B=2 m", "B=30 m").replace("q=18 kPa", "q=2000 kPa")
                .replace("gamma=18 kN/m^3", "gamma=20 kN/m^3")
                for arg in TERZAGHI_EVAL]
        assert main(argv) == 0
        assert "- **q_ult** = 43520 kPa\n" in capsys.readouterr().out
