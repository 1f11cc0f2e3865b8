"""Byte-for-byte golden outputs of the audit trace in every form it ships.

``tests/data/golden_traces.jsonl`` holds one ``{"case", "text"}`` object
per line: ``to_json()`` of every bundled variant under two input sets
(one with a parameter override), the iterative trace of the cyclic card,
the error payloads of a math-domain fault and of an overflowing step, the
Markdown report of each of those traces, rendered from its decoded JSON as
``geocard eval`` renders it, and ``to_dict()`` of the four ``jrc_a3``
width designs. Each test regenerates one case and compares.

After a deliberate change to the trace format, rewrite the file with

    PYTHONPATH=src python3 tests/test_golden_traces.py
"""

import json
from pathlib import Path

import pytest

from geocard.cards import load_card
from geocard.catalog import load_catalog
from geocard.ec7 import (DESIGN_APPROACHES, design_footing_width_ec7,
                         load_bundled_scenario)
from geocard.engine import EvaluationRequest, evaluate_card
from geocard.errors import GeocardError, MathDomain, NonFiniteValue
from geocard.report import render_report
from geocard.units import Quantity, default_registry
from test_engine import CYCLIC_CARD

GOLDEN = Path(__file__).parent / "data" / "golden_traces.jsonl"


def _dumps(body) -> str:
    return json.dumps(body, indent=2, allow_nan=False)


def _requests(mm):
    """(card id, variant, two (inputs, overrides) sets) per bundled variant.

    The first set is unit-tagged text; the second mixes bare card-unit
    numbers, text in other units and Quantity objects, so every echo form
    of a request value is pinned. Vesic is the only card with params.
    """
    terzaghi = (({"c_prime": "0 kPa", "phi_prime": "30 deg",
                  "gamma": "18 kN/m^3", "B": "2 m", "q": "18 kPa"}, {}),
                ({"c_prime": 12.5, "phi_prime": "0.6 radians", "gamma": 19,
                  "B": Quantity(1500.0, mm), "q": "0.02 MPa"}, {}))
    finite = ({"c_prime": "5 kPa", "phi_prime": "32 deg", "gamma": "18 kN/m^3",
               "B": "2 m", "L": "6 m", "D_f": "1 m", "q": "18 kPa"},
              {"c_prime": 0, "phi_prime": "28.5 deg", "gamma": 17.0,
               "B": Quantity(2500.0, mm), "L": "12 m", "D_f": 1.5,
               "q": "27 kPa"})
    return [
        ("BEARING_CAPACITY_TERZAGHI", "general_shear_failure_strip", terzaghi),
        ("BEARING_CAPACITY_TERZAGHI", "general_shear_failure_square", terzaghi),
        ("BEARING_CAPACITY_MEYERHOF", "general_shear_vertical",
         ((finite[0], {}), (finite[1], {}))),
        ("BEARING_CAPACITY_VESIC", "general",
         ((finite[0], {}), (finite[1], {"beta": "10 deg"}))),
        ("BEARING_CAPACITY_EUROCODE7", "drained", (
            ({"phi_prime_d": "38 deg", "c_prime_d": "0 kPa", "c_u_d": "0 kPa",
              "gamma": "18.5 kN/m^3", "B": "1.5 m", "L": "21.4 m",
              "q": "0 kPa"}, {}),
            ({"phi_prime_d": 0.55, "c_prime_d": 4, "c_u_d": 0, "gamma": 8.69,
              "B": Quantity(1497.0, mm), "L": 21.4, "q": "27.75 kPa"}, {}))),
        ("BEARING_CAPACITY_EUROCODE7", "undrained", (
            ({"phi_prime_d": "0 deg", "c_prime_d": "0 kPa", "c_u_d": "60 kPa",
              "gamma": "18 kN/m^3", "B": "2 m", "L": "10 m", "q": "18 kPa"}, {}),
            ({"phi_prime_d": 0, "c_prime_d": 0, "c_u_d": 42.86, "gamma": 18,
              "B": 3, "L": Quantity(3000.0, mm), "q": "0.036 MPa"}, {}))),
    ]


def _fault(card, variant, inputs, kind) -> GeocardError:
    try:
        evaluate_card(card, EvaluationRequest(card.id, variant, inputs))
    except kind as exc:
        assert exc.failed_step is not None and exc.partial_trace is not None
        return exc
    raise AssertionError(f"expected {kind.__name__}")


def golden_cases() -> dict:
    """Case name -> the exact text the program produces for it."""
    catalog = load_catalog()
    cases = {}
    for card_id, variant, sets in _requests(default_registry().resolve("mm")):
        card = catalog.get_method(card_id)
        for number, (inputs, overrides) in enumerate(sets, start=1):
            trace = evaluate_card(card, EvaluationRequest(
                card_id, variant, inputs, overrides))
            name = f"{card_id}/{variant}/{number}"
            cases[f"trace/{name}"] = trace.to_json()
            cases[f"report/{name}"] = render_report(json.loads(trace.to_json()), card)

    cyclic = load_card(CYCLIC_CARD)
    trace = evaluate_card(cyclic, EvaluationRequest(cyclic.id, "base", {"a": 1.0}))
    cases["trace/TEST_CYCLE/base"] = trace.to_json()
    cases["report/TEST_CYCLE/base"] = render_report(json.loads(trace.to_json()), cyclic)

    domain = json.loads(CYCLIC_CARD)
    domain["id"] = "TEST_FAULT"
    domain["variants"][0]["equations"] = [
        {"target": "y", "sympy": "a"},
        {"target": "x", "sympy": "log(0 - y)"},
    ]
    fault = _fault(load_card(json.dumps(domain)), "base", {"a": 2.0}, MathDomain)
    cases["payload/math_domain"] = _dumps(fault.payload())
    fault = _fault(catalog.get_method("BEARING_CAPACITY_TERZAGHI"),
                   "general_shear_failure_strip",
                   {"c_prime": "0 kPa", "phi_prime": "30 deg",
                    "gamma": "1e300 kN/m^3", "B": "1e300 m", "q": "18 kPa"},
                   NonFiniteValue)
    cases["payload/non_finite_value"] = _dumps(fault.payload())

    scenario = load_bundled_scenario("jrc_a3")
    for da in DESIGN_APPROACHES:
        design = design_footing_width_ec7(scenario, da, catalog=catalog)
        cases[f"design/jrc_a3/{da}"] = _dumps(design.to_dict())
    return cases


def _golden() -> dict:
    if not GOLDEN.exists():  # before its first generation
        return {}
    lines = GOLDEN.read_text("utf-8").splitlines()
    return {entry["case"]: entry["text"] for entry in map(json.loads, lines)}


GOLDEN_CASES = _golden()


@pytest.fixture(scope="module")
def regenerated():
    return golden_cases()


def test_case_names_match(regenerated):
    assert list(regenerated) == list(GOLDEN_CASES)


@pytest.mark.parametrize("case", list(GOLDEN_CASES))
def test_output_is_byte_identical(case, regenerated):
    assert regenerated[case] == GOLDEN_CASES[case]


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8", newline="\n") as out:
        for case, text in golden_cases().items():
            out.write(json.dumps({"case": case, "text": text}) + "\n")
