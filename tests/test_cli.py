"""CLI behavior: exit codes, output formats, stream discipline."""

import contextlib
import fcntl
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import BAD_CARD_FILES, HUGE_INT
from geocard import tools
from geocard.catalog import default_catalog
from geocard.cli import main
from geocard.ec7 import (DESIGN_APPROACHES, bundled_scenario_path,
                         check_footing_uls_ec7, design_footing_width_ec7,
                         load_scenario)
from geocard.engine import strict_json
from geocard.report import format_sig
from test_ec7 import BAD_RESOLUTION, OVERFLOWING, overflowing_scenario
from test_engine import dimensionless_card
from test_goldens import BY_NAME, ROOT

SCENARIO = bundled_scenario_path()
JRC_A3 = "src/geocard/data/scenarios/jrc_a3.json"
PAD = "tests/data/scenario_eccentric_pad.json"  # relative to the repository root

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

    def test_validate_directory(self, tmp_path, capsys):
        good = (Path(__file__).parents[1] /
                "src/geocard/data/catalog/bearing_capacity_vesic.json")
        (tmp_path / "vesic.json").write_text(good.read_text())
        assert main(["validate", str(tmp_path)]) == 0
        assert "BEARING_CAPACITY_VESIC" in capsys.readouterr().out

    def test_validate_directory_skips_hidden_entries(self, tmp_path, capsys):
        good = (Path(__file__).parents[1] /
                "src/geocard/data/catalog/bearing_capacity_vesic.json")
        (tmp_path / "vesic.json").write_text(good.read_text())
        (tmp_path / ".#vesic.json").write_text("user@host.1234:1700000000")
        assert main(["validate", str(tmp_path)]) == 0
        assert capsys.readouterr().out == "ok   vesic.json: BEARING_CAPACITY_VESIC\n"
        (tmp_path / "vesic.json").unlink()
        assert main(["validate", str(tmp_path)]) == 2

    def test_nonexistent_path_is_usage_error(self, capsys):
        assert main(["validate", "/no/such/path.json"]) == 2

    def test_directory_without_cards_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "notes.txt").write_text("not a card")
        assert main(["validate", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"usage error: no *.json card file in directory: {tmp_path}\n"

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
                     "--da", "DA1-C2", "--B", "1.497 m"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_check_json_format(self, capsys):
        assert main(["ec7", "check", "--scenario", SCENARIO,
                     "--da", "DA2", "--B", "1.3 m", "--format", "json"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body[0]["design_approach"] == "DA2"
        assert "trace" in body[0]

    def test_pad_golden_pins_what_jrc_a3_does_not(self):
        """The pad's designs are undrained as well as drained, under an
        eccentric load and the effective overburden, and every drained width
        puts the water table within one effective width below the base."""
        root = Path(__file__).parents[1]
        pad = load_scenario((root / PAD).read_text("utf-8"))
        assert pad.c_u_k is not None and pad.e > 0
        assert pad.surcharge_model == "effective_overburden"
        drained = json.loads((root / "tests/data/golden_cli_ec7_design_drained.json")
                             .read_text("utf-8"))
        assert len(drained) == len(DESIGN_APPROACHES)
        for design in drained:
            below_base = pad.groundwater_depth - pad.D_f
            assert 0 < below_base < design["check"]["B_effective"]
            assert design["check"]["drainage"] == "drained"

    @pytest.mark.parametrize("command", [["check", "--B", "1.5 m"], ["design"]])
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

    @pytest.mark.parametrize("width", ["1e999 m", "-1e999 m", "1e400 mm"])
    @pytest.mark.parametrize("da", ["DA2", "DA9"])
    def test_non_finite_width_names_the_width(self, da, width, capsys):
        """The width is checked before the Design Approach, as the MCP
        tool checks it."""
        pad = str(Path(__file__).parents[1] / PAD)
        assert main(["ec7", "check", "--scenario", pad, "--da", da,
                     f"--B={width}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 'B' is not a finite number\n"

    @pytest.mark.parametrize("command, error", [
        (["check", "--B", "-1e-3 m"], "width must be positive, got -0.001"),
        (["check", "--B", "-1e999 m"], "'B' is not a finite number"),
        (["check", "--B", "-0.5 m"], "width must be positive, got -0.5"),
        (["design", "--resolution", "-1e-3 m"], BAD_RESOLUTION),
        (["design", "--res", "-1 mm"], BAD_RESOLUTION),
    ], ids=["width-exponent", "width-minus-inf", "width-decimal",
            "resolution-exponent", "resolution-abbreviated"])
    def test_negative_value_after_its_option_is_a_domain_error(self, command,
                                                               error, capsys):
        """A value that starts with "-" reaches the domain check, whether
        or not argparse reads it as a negative number."""
        pad = str(Path(__file__).parents[1] / PAD)
        assert main(["ec7", command[0], "--scenario", pad, "--da", "DA2",
                     *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error}\n"

    @pytest.mark.parametrize("command", [["check", "--B", "1.5 m"], ["design"]])
    def test_missing_scenario_file_is_usage_error(self, command, capsys):
        assert main(["ec7", command[0], "--scenario", "/no/file.json",
                     "--da", "all", *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: no such scenario file: /no/file.json\n"

    def test_non_utf8_scenario_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_bytes(b'{"L": "\xff"}')
        assert main(["ec7", "check", "--scenario", str(path), "--da", "DA2",
                     "--B", "1.5 m"]) == 1
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
                     "--B", "1.5 m"]) == 1
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
                     "--B", "1.5 m", "--format", "json"]) == 1
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
                     "--B", "1.5 m", "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {key!r} is not a finite number\n"


class TestEc7JsonMatchesTheReference:
    """``--format json`` indents each reply's text into the list; the
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
                         "--B", f"{B} m", "--format", "json"]) == 0
            loaded = load_scenario(Path(scenario_file).read_text())
            results = [check_footing_uls_ec7(loaded, da, float(B))
                       for da in DESIGN_APPROACHES]
            assert capsys.readouterr().out == self.reference(results)
        assert {r.utilization for r in results} == {math.inf}
        assert [r["utilization"] for r in json.loads(self.reference(results))] == [None] * 4

    @pytest.mark.parametrize("da", ["DA3", "all"])
    def test_design(self, da, capsys):
        assert main(["ec7", "design", "--scenario", SCENARIO, "--da", da,
                     "--resolution", "10 mm", "--format", "json"]) == 0
        scenario = load_scenario(Path(SCENARIO).read_text())
        results = [design_footing_width_ec7(scenario, d, resolution=0.01)
                   for d in (DESIGN_APPROACHES if da == "all" else [da])]
        assert capsys.readouterr().out == self.reference(results)


def _evaluate(card, variant, inputs, overrides=None):
    return {"card": card, "variant": variant, "inputs": inputs,
            "overrides": overrides or {}}


def _kv(flag, pairs):
    return [arg for key, value in pairs.items() for arg in (flag, f"{key}={value}")]


_TERZAGHI_INPUTS = {"c_prime": "0 kPa", "phi_prime": "30 deg", "gamma": "18 kN/m^3",
                    "B": "2 m", "q": "18 kPa"}
_VESIC_INPUTS = {"phi_prime": "30 deg", "c_prime": "5 kPa", "gamma": "18 kN/m^3",
                 "B": "2 m", "L": "3 m", "D_f": "1 m", "q": "18 kPa"}
_EC7_PHI0_INPUTS = {"phi_prime_d": "0 rad", "c_prime_d": "50 kPa", "c_u_d": "0 kPa",
                    "gamma": "18 kN/m^3", "B": "2 m", "L": "2 m", "q": "0 kPa"}


def _ec7(scenario, da, arguments):
    """The tool's arguments per Design Approach an ``ec7`` command line calls."""
    scenario_object = json.loads((ROOT / scenario).read_text("utf-8"))
    return [{"scenario": scenario_object, "design_approach": d, **arguments}
            for d in (DESIGN_APPROACHES if da == "all" else [da])]


# Values an eval command line may give each input: valid ones, and others
# of another dimension, unit or sign, with no finite number, or with no unit
# tag (every input below has a dimension, so a bare number is refused).
_VALID_INPUTS = {
    "phi_prime": ["30 deg", "0.4 rad", "28.5 deg"], "phi_prime_d": ["25 deg", "0.4 rad"],
    "c_prime": ["0 kPa", "5 kPa", "0.01 MPa"], "c_prime_d": ["4 kPa", "0 kPa"],
    "c_u_d": ["50 kPa", "0.05 MPa"], "gamma": ["18 kN/m^3", "19.5 kN/m^3"],
    "B": ["2 m", "1500 mm"], "L": ["3 m", "4000 mm"], "D_f": ["1 m", "0.5 m"],
    "q": ["18 kPa", "0 kPa"]}
_BAD_INPUTS = ["2 kPa", "-2 m", "2 furlong", "nan kPa", "1e400 kPa", "abc", "", "2",
               "0.5"]
_EVAL_TARGETS = [
    ("BEARING_CAPACITY_TERZAGHI", "general_shear_failure_strip"),
    ("BEARING_CAPACITY_TERZAGHI", "general_shear_failure_square"),
    ("BEARING_CAPACITY_MEYERHOF", "general_shear_vertical"),
    ("BEARING_CAPACITY_VESIC", "general"),
    ("BEARING_CAPACITY_EUROCODE7", "drained"),
    ("BEARING_CAPACITY_EUROCODE7", "undrained"),
    ("BEARING_CAPACITY_TERZAGHI", "nope"), ("NOPE", "general")]


@st.composite
def _eval_requests(draw):
    """An eval command line, and its tool and arguments: one value for
    each of the card's inputs, one in ten of them invalid; sometimes one
    input left out, or one the card lacks; and some overrides."""
    card, variant = draw(st.sampled_from(_EVAL_TARGETS))
    keys = sorted(default_catalog().cards[card].input_keys if card != "NOPE" else ["B"])
    inputs = draw(st.fixed_dictionaries({key: st.integers(0, 9).flatmap(
        lambda n, key=key: st.sampled_from(_VALID_INPUTS[key] if n else _BAD_INPUTS))
        for key in keys}))
    if draw(st.integers(0, 3)) == 0:
        del inputs[draw(st.sampled_from(keys))]
    if draw(st.integers(0, 7)) == 0:
        inputs["nope"] = "1 m"
    overrides = draw(st.dictionaries(st.sampled_from(["beta", "nope"]),
                                     st.sampled_from(["5 deg", "0 deg", "5 kPa", "5"]),
                                     max_size=2))
    argv = ["eval", card, variant, *_kv("--in", inputs), *_kv("--override", overrides),
            "--format", "json"]
    return "geo_evaluate_with_units", argv, [_evaluate(card, variant, inputs, overrides)]


@st.composite
def _ec7_check_requests(draw):
    """An ec7 check command line, and its tool and arguments per call: a
    width that may be too small, not positive or not finite, and a Design
    Approach or drainage the scenario may lack."""
    scenario = draw(st.sampled_from([JRC_A3, PAD]))
    da = draw(st.sampled_from([*DESIGN_APPROACHES, "all", "DA9"]))
    width = draw(st.sampled_from(["2.0 m", "1.5 m", "3 m", "2500 mm"] * 2
                                 + ["0.3 m", "0 m", "-1e-3 m", "nan m", "1e400 m",
                                    "2 kPa", "2 furlong", "abc", ""]))
    drainage = draw(st.sampled_from(["drained", "undrained"]))
    argv = ["ec7", "check", "--scenario", str(ROOT / scenario), "--da", da, "--B", width,
            "--drainage", drainage, "--format", "json"]
    return ("geo_check_footing_uls_ec7", argv,
            _ec7(scenario, da, {"B": width, "drainage": drainage}))


# Golden table rows that run an MCP tool: the tool, and its arguments per call.
_CLI_ROWS = {
    "golden_cli_terzaghi.json": ("geo_evaluate_with_units", [_evaluate(
        "BEARING_CAPACITY_TERZAGHI", "general_shear_failure_strip", _TERZAGHI_INPUTS)]),
    "golden_cli_vesic_override.json": ("geo_evaluate_with_units", [_evaluate(
        "BEARING_CAPACITY_VESIC", "general", _VESIC_INPUTS, {"beta": "5 deg"})]),
    "golden_cli_ec7_phi0.json": ("geo_evaluate_with_units", [_evaluate(
        "BEARING_CAPACITY_EUROCODE7", "drained", _EC7_PHI0_INPUTS)]),
    "golden_cli_coupled.json": ("geo_evaluate_with_units", [_evaluate(
        "BENCH_COUPLED_PRESSURE", "coupled", {"p": "100 kPa", "a": "20 kPa"})]),
    "eval-furlong": ("geo_evaluate_with_units", [_evaluate(
        "BEARING_CAPACITY_TERZAGHI", "general_shear_failure_strip",
        dict(_TERZAGHI_INPUTS, B="2 furlong"))]),
    "eval-bare-number": ("geo_evaluate_with_units", [_evaluate(
        "BEARING_CAPACITY_TERZAGHI", "general_shear_failure_strip",
        dict(_TERZAGHI_INPUTS, phi_prime="30"))]),
    "golden_cli_ec7_design.json": ("geo_design_footing_width_ec7", _ec7(
        JRC_A3, "all", {"drainage": "drained"})),
    "golden_cli_ec7_design_tight.json": ("geo_design_footing_width_ec7", _ec7(
        JRC_A3, "all", {"resolution": "0.001 mm", "drainage": "drained"})),
    "design-resolution-1-m": ("geo_design_footing_width_ec7", _ec7(
        JRC_A3, "DA2", {"resolution": "1 m", "drainage": "drained"})),
    "design-resolution-0.3-m": ("geo_design_footing_width_ec7", _ec7(
        JRC_A3, "DA2", {"resolution": "0.3 m", "drainage": "drained"})),
    "golden_cli_ec7_design_drained.json": ("geo_design_footing_width_ec7", _ec7(
        PAD, "all", {"drainage": "drained"})),
    "golden_cli_ec7_design_undrained.json": ("geo_design_footing_width_ec7", _ec7(
        PAD, "all", {"drainage": "undrained"})),
    "golden_cli_ec7_check.json": ("geo_check_footing_uls_ec7", _ec7(
        JRC_A3, "all", {"B": "2.0 m", "drainage": "drained"})),
    "golden_cli_ec7_check_undrained_da2.json": ("geo_check_footing_uls_ec7", _ec7(
        PAD, "DA2", {"B": "2.5 m", "drainage": "undrained"})),
    "check-inf": ("geo_check_footing_uls_ec7", _ec7(
        PAD, "DA2", {"B": "1e999 m", "drainage": "drained"})),
    "check-negative": ("geo_check_footing_uls_ec7", _ec7(
        PAD, "DA2", {"B": "-1e-3 m", "drainage": "drained"})),
    "check-da9-inf": ("geo_check_footing_uls_ec7", _ec7(
        PAD, "DA9", {"B": "1e999 m", "drainage": "drained"})),
}


def _run_main(argv) -> tuple:
    """``main(argv)`` in process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _tool_outcome(name, calls) -> tuple:
    """What a command line that calls tool ``name`` once per arguments of
    ``calls`` must give, from the text of each reply through
    ``handle_message``: exit 0 and the one text for eval, or the list of
    them for ec7; or, at the first reply with ``isError``, exit 1 and its
    payload's message on stderr, with nothing on stdout."""
    from geocard.server import McpServer

    server, texts = McpServer(), []
    for arguments in calls:
        result = server.handle_message({
            "jsonrpc": "2.0", "id": 1, "method": "tools/call",
            "params": {"name": name, "arguments": arguments}})["result"]
        text = result["content"][0]["text"]
        if result["isError"]:
            return 1, "", f"error: {json.loads(text)['message']}\n"
        texts.append(text)
    if name == "geo_evaluate_with_units":
        return 0, texts[0] + "\n", ""
    listed = ",\n  ".join(text.replace("\n", "\n  ") for text in texts)
    return 0, f"[\n  {listed}\n]\n", ""


class TestCliRunsTheTool:
    """Each command line prints the text of the MCP tool it runs, through
    ``handle_message``, with a newline: one text for eval, the list of one
    per Design Approach for ec7. A tool error exits 1 with its message on
    stderr and nothing on stdout."""

    @pytest.mark.parametrize("row", sorted(_CLI_ROWS))
    @pytest.mark.usefixtures("fresh_default_catalog")
    def test_stdout_is_the_tool_text(self, row, monkeypatch):
        """The row's command line, in process, from its directory and environment."""
        monkeypatch.chdir(ROOT)
        for key, value in BY_NAME[row].env.items():
            monkeypatch.setenv(key, value)
        name, calls = _CLI_ROWS[row]
        assert _run_main(shlex.split(BY_NAME[row].argv)) == _tool_outcome(name, calls)

    @settings(max_examples=200, deadline=None)
    @given(_eval_requests() | _ec7_check_requests())
    def test_drawn_request_is_the_tool_reply(self, request):
        """Valid and invalid eval and ec7 check requests: unknown cards
        and variants, missing inputs and inputs of another dimension,
        unknown units and overrides, non-finite and negative widths, and
        Design Approaches and drainages a scenario lacks."""
        name, argv, calls = request
        assert _run_main(argv) == _tool_outcome(name, calls)

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(_EVAL_TARGETS[:6]), st.data())
    def test_drawn_bare_number_needs_a_unit(self, target, data):
        """Valid inputs but for one or more bare numbers, each for an
        input with a dimension: exit 1 naming every such input, sorted,
        with nothing on stdout."""
        card, variant = target
        keys = sorted(default_catalog().cards[card].input_keys)
        inputs = {key: data.draw(st.sampled_from(_VALID_INPUTS[key])) for key in keys}
        bare = data.draw(st.lists(st.sampled_from(keys), min_size=1, unique=True))
        for key in bare:
            inputs[key] = data.draw(st.sampled_from(["0", "2", "30", "-1.5", "1e3"]))
        argv = ["eval", card, variant, *_kv("--in", inputs), "--format", "json"]
        assert _run_main(argv) == (
            1, "", f"error: value(s) need a unit tag: {', '.join(sorted(bare))}\n")

    @pytest.mark.parametrize("scenario, da, width", [
        (JRC_A3, "all", "2"), (JRC_A3, "DA2", "1.5"), (PAD, "DA9", "2.0"),
        (PAD, "DA2", "-1e-3"), (PAD, "DA2", "1e999"), (PAD, "all", "0")])
    def test_bare_width_needs_a_unit(self, scenario, da, width):
        """A width without its unit exits 1 naming B, with nothing on
        stdout, as a bare eval input does: the tool refuses it."""
        argv = ["ec7", "check", "--scenario", str(ROOT / scenario), "--da", da,
                "--B", width, "--format", "json"]
        assert _run_main(argv) == (1, "", "error: value(s) need a unit tag: B\n")


class TestUnwritableToolValue:
    """A tool value the reply writer cannot write fails as the server
    answers it (``test_server.py::TestUnwritableToolValue``): exit 1, the
    server's message on stderr, nothing on stdout and no traceback."""

    @pytest.mark.parametrize("value, err", [
        ({"x": object()}, "error: TypeError: Object of type object is not JSON serializable\n"),
        ({"x": math.nan}, "error: 'result' is not a finite number\n"),
    ], ids=["object", "nan"])
    @pytest.mark.parametrize("argv", [
        TERZAGHI_EVAL + ["--format", "json"], TERZAGHI_EVAL + ["--format", "report"],
        ["ec7", "check", "--scenario", SCENARIO, "--da", "DA2", "--B", "2 m",
         "--format", "summary"],
    ], ids=["eval-json", "eval-report", "ec7-check-summary"])
    def test_error_line_and_no_output(self, argv, value, err, monkeypatch):
        for name in ("geo_evaluate_with_units", "geo_check_footing_uls_ec7"):
            monkeypatch.setattr(tools, name, lambda server, args: value)
        assert _run_main(argv) == (1, "", err)


class TestNanOperand:
    """A user card whose steps form a NaN inside an expression passes
    validation, and its evaluation fails with one error line, not
    ``y = 0`` and ``z = 2``."""

    @pytest.mark.usefixtures("fresh_default_catalog")
    def test_probe_card_exits_1_with_an_error_line(self, tmp_path, monkeypatch):
        path = tmp_path / "nan_probe.json"
        path.write_text(dimensionless_card("NAN_PROBE", ["y", "z"], [], ["x"], [
            {"target": "y", "sympy": "Max(0, x*x*x - x*x*x)"},
            {"target": "z", "sympy": "Piecewise((1, x*x*x - x*x*x > 0), (2, True))"},
        ]), encoding="utf-8")
        monkeypatch.setenv("GEOCARD_CATALOG_DIR", str(tmp_path))
        assert _run_main(["validate", str(path)])[0] == 0
        for fmt in ("report", "json"):
            assert _run_main(["eval", "NAN_PROBE", "base", "--in", "x=1e200",
                              "--format", fmt]) == (
                1, "", "error: NaN operand in Max(0, x*x*x - x*x*x)\n")


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


class TestClosedStdout:
    """A reader that goes away after the first line ends the command with
    exit 1 and no traceback: ``geocard ... | head -1``, or an MCP client
    that closes its end of the pipe."""

    def test_ec7_design_piped_into_head(self):
        """The pipe holds one page, less than the 23 kB the design writes,
        so the command is still writing when the reader closes it."""
        read_end, write_end = os.pipe()
        if hasattr(fcntl, "F_SETPIPE_SZ"):
            fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
        proc = subprocess.Popen(
            [sys.executable, "-m", "geocard.cli", "ec7", "design", "--scenario", JRC_A3,
             "--da", "all", "--format", "json"],
            cwd=Path(__file__).parents[1], stdout=write_end, stderr=subprocess.PIPE)
        os.close(write_end)
        with open(read_end, "rb") as stdout:
            assert stdout.readline() == b"[\n"
        stderr = proc.communicate(timeout=60)[1]
        assert stderr == b""  # no traceback, and no other complaint
        assert proc.returncode == 1

    def test_serve_whose_client_has_gone(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "geocard.cli", "serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        ping = b'{"jsonrpc":"2.0","id":1,"method":"ping"}\n'
        proc.stdin.write(ping)
        proc.stdin.flush()
        assert proc.stdout.readline() == b'{"jsonrpc":"2.0","id":1,"result":{}}\n'
        proc.stdout.close()
        proc.stdin.write(ping * 2)
        proc.stdin.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert stderr == b""  # no traceback, and no other complaint
        assert proc.wait(timeout=60) == 1


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

    def test_serve_with_any_argument_goes_through_the_parser(self, capsys):
        """Only a bare ``serve`` skips the parser: ``serve --help`` prints
        the command's help, and ``serve extra`` is a usage error."""
        with pytest.raises(SystemExit) as helped:
            main(["serve", "--help"])
        assert helped.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: geocard serve [-h]\n")
        with pytest.raises(SystemExit) as refused:
            main(["serve", "extra"])
        assert refused.value.code == 2
        assert capsys.readouterr().err.endswith(
            "geocard: error: unrecognized arguments: extra\n")

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

    @pytest.mark.parametrize("args", [
        ["--in", "B=3 m"], ["--in", " B =3 m"],
        ["--override", "k=1", "--override", "k =2"],
    ])
    def test_repeated_key_is_usage_error(self, args, capsys):
        """A key given twice is not resolved by the last one winning."""
        flag, key = args[-2], args[-1].partition("=")[0].strip()
        assert main(TERZAGHI_EVAL + args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: {flag} gives {key!r} twice\n"


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
