"""Text names its unit. A value sent as text that has no unit tag, for a
key whose unit is not ``dimensionless``, is refused with ``missing_unit``
naming the key: as an input or override of ``evaluate_card``,
``geo_evaluate`` and ``geo_evaluate_with_units``, as an EC7 scenario
field, where a JSON number is refused too, and as the check tool's ``B``.
A number sent to ``geo_evaluate`` is in card units, and the same magnitude
tagged with the card unit gives the same trace.
"""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from geocard.catalog import default_catalog
from geocard.engine import EvaluationRequest, evaluate_card
from geocard.errors import MissingUnit
from geocard.server import McpServer
from test_cli import _run_main
from test_server import JRC_SCENARIO, call, tool_error

CATALOG = default_catalog()

# A footing for every bundled input key, in card units (radians, kPa,
# kN/m^3, m).
CARD_UNIT_VALUES = {"phi_prime": 0.5, "phi_prime_d": 0.4, "c_prime": 5.0,
                    "c_prime_d": 4.0, "c_u_d": 50.0, "gamma": 18.0, "B": 2.0,
                    "L": 3.0, "D_f": 1.0, "q": 18.0}

VARIANTS = sorted((card.id, variant.id) for card in CATALOG.cards.values()
                  for variant in card.variants)

# (card, variant, "inputs" or "overrides", key): every key a client can send.
KEYS = sorted(
    (card_id, variant_id, kind, key)
    for card_id, variant_id in VARIANTS
    for kind, keys in (("inputs", CATALOG.cards[card_id].input_keys),
                       ("overrides", CATALOG.cards[card_id].param_defaults))
    for key in keys)

UNTAGGED = ["0", "2", "30", "-1.5", "1e3"]

EVALUATE_PATHS = ["evaluate_card", "geo_evaluate", "geo_evaluate_with_units"]

# Every physical field of a scenario; each is a quantity.
SCENARIO_QUANTITIES = ["L", "D_f", "phi_prime_k", "c_prime_k", "gamma_k",
                       "groundwater_depth", "G_k_col", "Q_k", "gamma_sw", "e", "c_u_k"]

EC7_TOOLS = ["geo_check_footing_uls_ec7", "geo_design_footing_width_ec7"]


def _tagged(value: float, unit: str) -> str:
    return f"{value!r} {unit}"


def _arguments(card_id, variant_id, tag: bool) -> dict:
    """A valid request for the variant: each input, tagged with its card
    unit or a number in it."""
    card = CATALOG.cards[card_id]
    return {"card": card_id, "variant": variant_id, "overrides": {},
            "inputs": {key: _tagged(CARD_UNIT_VALUES[key], card.units[key].name)
                       if tag else CARD_UNIT_VALUES[key] for key in card.input_keys}}


def _without_echo(result) -> dict:
    """A tool result's payload, with the request echo of its trace, or of
    its error's partial trace, taken out."""
    payload = json.loads(result["content"][0]["text"])
    del payload.get("partial_trace", payload)["request"]
    return payload


@pytest.fixture(scope="module")
def server():
    return McpServer()


def test_no_bundled_key_is_dimensionless():
    """So the rule covers every key the property tests draw."""
    for card_id, _, _, key in KEYS:
        assert CATALOG.cards[card_id].units[key].name != "dimensionless", (card_id, key)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KEYS), st.sampled_from(UNTAGGED),
       st.sampled_from(EVALUATE_PATHS), st.booleans())
@example(("BEARING_CAPACITY_TERZAGHI", "general_shear_failure_strip", "inputs",
          "phi_prime"), "30", "geo_evaluate", False)
def test_untagged_text_is_refused(server, target, text, path, tag_others):
    """Untagged numeric text for one key, the other inputs valid: a
    ``missing_unit`` naming that key alone. ``geo_evaluate_with_units``
    refuses a number as well, so its other inputs are tagged."""
    card_id, variant_id, kind, key = target
    arguments = _arguments(card_id, variant_id,
                           tag_others or path == "geo_evaluate_with_units")
    arguments[kind][key] = text
    message = f"value(s) need a unit tag: {key}"
    if path == "evaluate_card":
        request = EvaluationRequest(card_id=card_id, variant_id=variant_id,
                                    inputs=arguments["inputs"],
                                    overrides=arguments["overrides"])
        with pytest.raises(MissingUnit) as err:
            evaluate_card(CATALOG.cards[card_id], request)
        assert str(err.value) == message
    else:
        assert tool_error(call(server, path, arguments)) == {
            "error": "missing_unit", "message": message}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(VARIANTS), st.data())
def test_tagged_card_unit_is_the_number(server, target, data):
    """Any inputs tagged with their card unit give ``geo_evaluate`` the
    trace, or the error, of the same magnitudes sent as numbers: only the
    request's echo differs."""
    card_id, variant_id = target
    card = CATALOG.cards[card_id]
    numbers = _arguments(card_id, variant_id, tag=False)
    for key in card.input_keys:
        numbers["inputs"][key] = data.draw(
            st.floats(0.0, 2.0 * CARD_UNIT_VALUES[key]), label=key)
    tagged = {**numbers, "inputs": {
        key: _tagged(value, card.units[key].name)
        for key, value in numbers["inputs"].items()}}
    replies = [call(server, "geo_evaluate", arguments)["result"]
               for arguments in (numbers, tagged)]
    assert replies[0]["isError"] == replies[1]["isError"]
    assert _without_echo(replies[0]) == _without_echo(replies[1])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(EC7_TOOLS), st.sampled_from(SCENARIO_QUANTITIES),
       st.integers() | st.floats() | st.sampled_from(UNTAGGED))
@example("geo_design_footing_width_ec7", "L", 21400)
@example("geo_design_footing_width_ec7", "L", "21400")
def test_scenario_quantity_needs_its_unit(server, tool, field, value):
    """A scenario field sent as a JSON number, finite or not, or as
    untagged text: a ``missing_unit`` naming the field. ``L`` of 21400,
    millimetres meant, designed a 0.124 m width when a number was read
    in metres."""
    arguments = {"scenario": {**JRC_SCENARIO, field: value}, "design_approach": "DA2"}
    if tool == "geo_check_footing_uls_ec7":
        arguments["B"] = "2 m"
    assert tool_error(call(server, tool, arguments)) == {
        "error": "missing_unit", "message": f"value(s) need a unit tag: {field}"}


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(UNTAGGED))
@example("2")
def test_untagged_width_is_refused(server, width):
    """The check tool refuses untagged text for ``B``."""
    assert tool_error(call(server, "geo_check_footing_uls_ec7", {
        "scenario": JRC_SCENARIO, "design_approach": "DA2", "B": width})) == {
        "error": "missing_unit", "message": "value(s) need a unit tag: B"}


def test_cli_reads_the_scenario_before_the_width(tmp_path, monkeypatch):
    """The CLI leaves the width to the tool, so a missing scenario file is
    a usage error even when the width has no unit."""
    monkeypatch.chdir(tmp_path)
    argv = ["ec7", "check", "--scenario", "nope.json", "--da", "DA2", "--B", "2"]
    assert _run_main(argv) == (2, "", "usage error: no such scenario file: nope.json\n")

