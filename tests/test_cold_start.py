"""What a fresh interpreter imports: a catalog load needs neither the EC7
workflow, the engine, the skills, the MCP server nor ``dataclasses``, and
the package's lazy exports still resolve to the objects they name.

Each check runs in its own ``python -S`` process, so the modules this test
process has already imported do not count; nothing here is timed."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).parents[1] / "src")

# Every name the package exported when it imported all its modules at once,
# by the module that defines it.
EXPORTS = {
    "cards": ["DimensionFinding", "EquationSpec", "MethodCard", "VariableSpec",
              "VariantSpec", "load_card", "validate_dimensions"],
    "catalog": ["Catalog", "default_catalog", "load_catalog"],
    "ec7": ["FootingScenario", "PartialFactorSet", "UlsCheckResult",
            "check_footing_uls_ec7", "compute_design_action",
            "derive_design_parameters", "design_footing_width_ec7",
            "get_ec7_preset_partials", "load_bundled_scenario", "load_scenario"],
    "engine": ["EvaluationRequest", "EvaluationTrace", "evaluate_card",
               "normalize_inputs"],
    "errors": ["GeocardError"],
    "skills": ["Skill", "SkillLibrary", "load_skills"],
    "units": ["Dimension", "Quantity", "Unit", "UnitRegistry", "convert",
              "default_registry", "format_quantity", "parse_quantity"],
}

NOT_ON_THE_CATALOG_PATH = ["dataclasses", "inspect", "ast", "typing",
                           "geocard.engine", "geocard.ec7", "geocard.skills",
                           "geocard.server"]


def run(code: str):
    """The JSON value that ``code`` prints, run under ``python -S``."""
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          check=True, timeout=60, capture_output=True, text=True)
    return json.loads(done.stdout)


def loaded(names) -> str:
    return f"print(json.dumps([m for m in {names!r} if m in sys.modules]))"


def test_catalog_load_imports_only_what_it_needs():
    assert run("import json, sys, geocard; geocard.load_catalog(); "
               + loaded(NOT_ON_THE_CATALOG_PATH)) == []


def test_validate_loads_neither_ec7_skills_nor_server():
    modules = ["geocard.server", "geocard.ec7", "geocard.skills"]
    assert run("import io, json, sys, contextlib; from geocard.cli import main\n"
               "with contextlib.redirect_stdout(io.StringIO()):\n"
               "    assert main(['validate']) == 0\n"
               + loaded(modules)) == []


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_export_is_its_modules_object(module):
    names = EXPORTS[module]
    code = ("import json, geocard, importlib; "
            f"m = importlib.import_module('geocard.{module}'); "
            f"print(json.dumps([n for n in {names!r} "
            "if getattr(geocard, n) is not getattr(m, n) or n not in dir(geocard)]))")
    assert run(code) == []


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
