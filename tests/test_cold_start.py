"""What a fresh interpreter imports: the package imports no submodule,
the MCP handshake loads nothing a tool needs, a catalog load needs neither
the EC7 workflow, the engine, the skills, the MCP server, ``dataclasses``
nor ``fractions``, an MCP session that calls no EC7 tool loads neither the
workflow, ``dataclasses`` nor ``fractions``, ``geocard eval`` loads neither
the workflow, the skills nor ``dataclasses``, ``geocard ec7 check`` loads
no skills, and the package's lazy exports still resolve to the objects
they name.

Each check runs in its own ``python -S`` process, so the modules this test
process has already imported do not count; nothing here is timed."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).parents[1] / "src")
DATA = Path(__file__).parent / "data"

# Every name the package exported when it imported all its modules at once,
# by the module that defines it.
EXPORTS = {
    "cards": ["DimensionFinding", "EquationSpec", "MethodCard", "VariableSpec",
              "VariantSpec", "load_card", "validate_dimensions"],
    "catalog": ["Catalog", "default_catalog", "load_catalog"],
    "ec7": ["FootingScenario", "PartialFactorSet", "UlsCheckResult",
            "check_footing_uls_ec7", "design_footing_width_ec7",
            "get_ec7_preset_partials", "load_bundled_scenario", "load_scenario"],
    "engine": ["EvaluationRequest", "EvaluationTrace", "evaluate_card",
               "normalize_inputs"],
    "errors": ["GeocardError"],
    "skills": ["Skill", "SkillLibrary", "load_skills"],
    "units": ["Dimension", "Quantity", "Unit", "UnitRegistry", "convert",
              "default_registry", "format_quantity", "parse_quantity"],
}

NOT_ON_THE_CATALOG_PATH = ["dataclasses", "inspect", "ast", "typing",
                           "fractions", "decimal",
                           "geocard.engine", "geocard.ec7", "geocard.skills",
                           "geocard.server"]


NOT_ON_THE_HANDSHAKE_PATH = [
    *(f"geocard.{m}" for m in ("cards", "expression", "units", "record", "catalog",
                               "engine", "skills", "tools", "ec7")),
    "pathlib", "argparse", "gettext"]


def run(code: str):
    """The JSON value that ``code`` prints, run under ``python -S``."""
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          check=True, timeout=60, capture_output=True, text=True)
    return json.loads(done.stdout)


def loaded(names) -> str:
    return f"print(json.dumps([m for m in {names!r} if m in sys.modules]))"


def test_package_import_loads_no_submodule():
    assert run("import json, sys, geocard; "
               "print(json.dumps([m for m in sys.modules if m.startswith('geocard.')]))") == []


def test_handshake_replies_before_loading_what_a_tool_needs():
    """``geocard serve`` answers initialize, notifications/initialized and
    tools/list as the golden transcript pins, having imported (as
    ``-X importtime`` lists) no module that only a tool call needs."""
    handshake = (DATA / "golden_transcript_requests.jsonl").read_bytes().splitlines(True)[:3]
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-S", "-X", "importtime", "-m", "geocard.cli", "serve"],
                          input=b"".join(handshake), env=env, check=True, timeout=60,
                          capture_output=True)
    expected = (DATA / "golden_transcript_expected.jsonl").read_bytes().splitlines(True)[:2]
    assert done.stdout == b"".join(expected)
    imported = {line.rsplit("|", 1)[-1].strip()
                for line in done.stderr.decode().splitlines() if line.startswith("import time:")}
    assert "geocard.server" in imported
    assert [m for m in NOT_ON_THE_HANDSHAKE_PATH if m in imported] == []


def test_catalog_load_imports_only_what_it_needs():
    assert run("import json, sys, geocard; geocard.load_catalog(); "
               + loaded(NOT_ON_THE_CATALOG_PATH)) == []


def test_validate_loads_neither_ec7_skills_nor_server():
    modules = ["geocard.server", "geocard.ec7", "geocard.skills"]
    assert run("import io, json, sys, contextlib; from geocard.cli import main\n"
               "with contextlib.redirect_stdout(io.StringIO()):\n"
               "    assert main(['validate']) == 0\n"
               + loaded(modules)) == []


def test_eval_loads_neither_ec7_skills_nor_dataclasses():
    """eval runs the geo_evaluate tool on an McpServer, whose skills and
    EC7 workflow it never reads."""
    argv = ["eval", "BEARING_CAPACITY_TERZAGHI", "general_shear_failure_strip",
            "--in", "c_prime=0 kPa", "--in", "phi_prime=30 deg",
            "--in", "gamma=18 kN/m^3", "--in", "B=2 m", "--in", "q=18 kPa"]
    assert run("import io, json, sys, contextlib; from geocard.cli import main\n"
               "with contextlib.redirect_stdout(io.StringIO()):\n"
               f"    assert main({argv!r}) == 0\n"
               + loaded(["geocard.skills", "geocard.ec7", "dataclasses"])) == []


def test_ec7_check_loads_no_skills():
    scenario = str(DATA / "scenario_eccentric_pad.json")
    argv = ["ec7", "check", "--scenario", scenario, "--da", "all", "--B", "2.5 m"]
    assert run("import io, json, sys, contextlib; from geocard.cli import main\n"
               "with contextlib.redirect_stdout(io.StringIO()):\n"
               f"    assert main({argv!r}) == 0\n"
               + loaded(["geocard.skills", "geocard.ec7"])) == ["geocard.ec7"]


def test_server_session_without_ec7_tools_loads_neither_ec7_nor_dataclasses():
    evaluate = {"card": "BEARING_CAPACITY_TERZAGHI",
                "variant": "general_shear_failure_strip",
                "inputs": {"c_prime": 0, "phi_prime": 0.5, "gamma": 18, "B": 2, "q": 18}}
    assert run("import json, sys; from geocard.server import McpServer\n"
               "server = McpServer()\n"
               "for method, params in [('initialize', {}), ('tools/list', {}), "
               f"('tools/call', {{'name': 'geo_evaluate', 'arguments': {evaluate!r}}})]:\n"
               "    reply = server.handle_message({'jsonrpc': '2.0', 'id': 1, "
               "'method': method, 'params': params})\n"
               "    assert 'result' in reply and not reply['result'].get('isError'), reply\n"
               + loaded(["dataclasses", "geocard.ec7", "fractions", "decimal"])) == []


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_export_is_its_modules_object(module):
    names = EXPORTS[module]
    code = ("import json, geocard, importlib; "
            f"m = importlib.import_module('geocard.{module}'); "
            f"print(json.dumps([n for n in {names!r} "
            "if getattr(geocard, n) is not getattr(m, n) or n not in dir(geocard)]))")
    assert run(code) == []


def test_dir_lists_every_export_before_its_lookup():
    """``dir(geocard)`` names every lazy export, and looks none up."""
    names = sorted(n for ns in EXPORTS.values() for n in ns)
    assert run("import json, sys, geocard; listed = dir(geocard); "
               f"print(json.dumps([[n for n in {names!r} if n not in listed], "
               "[m for m in sys.modules if m.startswith('geocard.')]]))") == [[], []]


def test_an_export_is_kept_after_its_first_lookup():
    assert run("import json, geocard; first = geocard.evaluate_card; "
               "print(json.dumps([vars(geocard).get('evaluate_card') is first, "
               "geocard.evaluate_card is first]))") == [True, True]


def test_submodules_still_import_from_the_package():
    assert run("import json; from geocard import engine, ec7, skills; "
               "print(json.dumps([engine.__name__, ec7.__name__, skills.__name__]))"
               ) == ["geocard.engine", "geocard.ec7", "geocard.skills"]


def test_unknown_name_is_an_attribute_error():
    assert run("import json, geocard\n"
               "try:\n"
               "    geocard.nope\n"
               "except AttributeError as exc:\n"
               "    print(json.dumps(str(exc)))"
               ) == "module 'geocard' has no attribute 'nope'"
