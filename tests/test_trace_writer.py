"""The trace writer against its reference: ``to_json()`` must equal
``json.dumps(trace.to_dict(), indent=2, allow_nan=False)`` byte for byte,
for every bundled variant, the cyclic cards and generated cards, and must
fail where the reference fails."""

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from geocard.cards import MethodCard, load_card
from geocard.catalog import load_catalog
from geocard.engine import (EvaluationRequest, EvaluationTrace, _template,
                            evaluate_card, strict_json)
from geocard.errors import GeocardError, NonFiniteValue
from geocard.units import Quantity, default_registry
from test_engine import CYCLIC_CARD, DIVERGENT_CARD
from test_golden_traces import _requests

REGISTRY = default_registry()
CATALOG = load_catalog()
BENCH_CYCLIC = load_card(
    (Path(__file__).parents[1] / "perfbench/cyclic_card.json").read_text("utf-8"))


def replaced(trace, **changes) -> EvaluationTrace:
    """A new trace with the fields of ``trace``, ``changes`` applied."""
    fields = {name: getattr(trace, name) for name in EvaluationTrace.__slots__}
    return EvaluationTrace(**{**fields, **changes})


def reference(trace) -> str:
    return json.dumps(trace.to_dict(), indent=2, allow_nan=False)


def templated(trace) -> str:
    """to_json(), checked to come from the variant's template."""
    assert _template(trace).write(trace) is not None
    return trace.to_json()


def _base_traces() -> dict:
    """One evaluated trace per bundled variant and per cyclic card."""
    traces = {}
    for card_id, variant, sets in _requests(REGISTRY.resolve("mm")):
        inputs, overrides = sets[-1]
        traces[f"{card_id}/{variant}"] = evaluate_card(
            CATALOG.get_method(card_id),
            EvaluationRequest(card_id, variant, inputs, overrides))
    cyclic = load_card(CYCLIC_CARD)
    traces["TEST_CYCLE/base"] = evaluate_card(
        cyclic, EvaluationRequest(cyclic.id, "base", {"a": 1.0}))
    traces["BENCH_COUPLED_PRESSURE/coupled"] = evaluate_card(
        BENCH_CYCLIC, EvaluationRequest(BENCH_CYCLIC.id, "coupled",
                                        {"p": "100 kPa", "a": 20.0}))
    return traces


BASE = _base_traces()

# Strings that need escapes, the writer's own markers among them.
HOSTILE = ["\x00", "\x000\x000", "\x000\x001", '"\x000\x000"', "\x000\x00",
           '"', "\\", '\\"', "{}", "{0}", "é", " ", "\ud800", "\n", "a"]
TEXT = st.one_of(st.text(max_size=12),
                 st.lists(st.sampled_from(HOSTILE), max_size=4).map("".join))
FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 2.0 ** 53]),
    st.integers(-10 ** 6, 10 ** 6).map(float),
    st.floats(allow_nan=False, allow_infinity=False))
NUMBERS = st.one_of(FLOATS, st.integers(-10 ** 20, 10 ** 20), st.booleans(), st.none())
UNITS = [REGISTRY.resolve(name) for name in ("m", "mm", "kPa", "deg", "dimensionless")]
ECHOES = st.one_of(TEXT, NUMBERS,
                   st.builds(Quantity, FLOATS, st.sampled_from(UNITS)))


class TestDifferential:
    @pytest.mark.parametrize("name", list(BASE))
    def test_evaluated_trace(self, name):
        trace = BASE[name]
        assert templated(trace) == reference(trace)

    @pytest.mark.parametrize("name", list(BASE))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_drawn_values(self, name, data):
        """The evaluated trace with every value, echo and override drawn."""
        base = BASE[name]
        card = base.card
        env = {k: data.draw(NUMBERS) for k in base.env}
        cycles = [{**cycle, "iterations": data.draw(st.integers(1, 200)),
                   "residual": data.draw(NUMBERS)}
                  for cycle in base.diagnostics["iterative_cycles"]]
        trace = replaced(
            base, env=env,
            request_inputs={k: data.draw(ECHOES) for k in base.request_inputs},
            request_overrides=data.draw(st.dictionaries(TEXT, ECHOES, max_size=3)),
            outputs={k: Quantity(env[k], card.units[k]) for k in card.output_keys},
            diagnostics={"iterative_cycles": cycles})
        assert templated(trace) == reference(trace)


def _generated(draw) -> tuple:
    """A card whose every free text is drawn, and a request for it."""
    unit = draw(st.sampled_from(["kPa", "m", "dimensionless"]))
    with_param = draw(st.booleans())
    variables = [
        {"key": "a", "name": draw(TEXT), "role": "input", "unit": unit},
        {"key": "b", "name": "b", "role": "input", "unit": unit,
         "description": draw(TEXT)},
        {"key": "k", "name": "k", "role": "intermediate", "unit": "dimensionless"},
        {"key": "y", "name": "y", "role": "output", "unit": unit},
    ]
    if with_param:
        variables.append({"key": "p", "name": "p", "role": "param",
                          "unit": unit, "default": draw(FLOATS)})
    sources = [{"title": draw(TEXT), **({"url": draw(TEXT)} if draw(st.booleans()) else {})}
               for _ in range(draw(st.integers(1, 2)))]
    card = {
        "id": "GENERATED", "title": draw(TEXT), "category": draw(TEXT),
        "description": draw(TEXT), "variables": variables,
        "variants": [{"id": draw(TEXT), "title": draw(TEXT), "equations": [
            # an equation with no symbols, described by null or by text
            {"target": "k", "sympy": draw(st.sampled_from(["2.5", "pi", "1"])),
             "description": draw(st.one_of(st.none(), TEXT))},
            {"target": "y", "sympy": "k*a + b" + (" - p" if with_param else ""),
             "description": draw(TEXT)},
        ]}],
        "sources": sources,
    }
    loaded = load_card(json.dumps(card))

    def echo(x):
        return draw(st.sampled_from([x, f"{x!r} {unit}", round(x),
                                     Quantity(x, REGISTRY.resolve(unit))]))

    magnitudes = st.floats(-1e6, 1e6)
    inputs = {"a": echo(draw(magnitudes)), "b": echo(draw(magnitudes))}
    overrides = {"p": echo(draw(magnitudes))} if with_param and draw(st.booleans()) else {}
    return loaded, EvaluationRequest(loaded.id, loaded.variants[0].id, inputs, overrides)


class TestGeneratedCards:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_to_json_matches_reference(self, data):
        card, request = _generated(data.draw)
        trace = evaluate_card(card, request)
        assert templated(trace) == reference(trace)

    @pytest.mark.parametrize("text", [
        "\x000\x000", "\x000\x001", "\x000\x002", "\x001\x000", '"\x000\x000'])
    def test_card_text_equal_to_a_marker(self, text):
        card = json.loads(CYCLIC_CARD)
        card["variants"][0]["id"] = text
        card["variants"][0]["equations"][0]["description"] = text
        card["sources"] = [{"title": text, "url": text}]
        loaded = load_card(json.dumps(card))
        trace = evaluate_card(loaded, EvaluationRequest(loaded.id, text, {"a": 2.0}))
        assert templated(trace) == reference(trace)
        assert json.loads(trace.to_json())["sources"][0]["title"] == text


class TestTemplateIsTheCards:
    def test_modified_card_under_a_bundled_id(self):
        bundled = CATALOG.get_method("BEARING_CAPACITY_TERZAGHI")
        inputs, _ = _requests(REGISTRY.resolve("mm"))[0][2][0]
        request = EvaluationRequest(bundled.id, "general_shear_failure_strip", inputs)
        evaluate_card(bundled, request).to_json()
        raw = bundled.to_dict()
        raw["variables"] = [{**v, "unit": "Pa"} if v["key"] == "q_ult" else v
                            for v in raw["variables"]]
        raw["sources"][0]["title"] = "Changed"
        modified = load_card(json.dumps(raw))
        trace = evaluate_card(modified, request)
        assert templated(trace) == reference(trace)
        assert json.loads(trace.to_json())["outputs"]["q_ult"]["unit"] == "Pa"

    def test_replaced_card_gets_its_own_template(self):
        base = BASE["BEARING_CAPACITY_MEYERHOF/general_shear_vertical"]
        base.to_json()
        old = base.card
        card = MethodCard(
            old.id, old.title, old.category, old.description, old.variables,
            old.variants, old.assumptions, old.applicability, old.sources,
            {**old.units, "q_ult": REGISTRY.resolve("Pa")}, old.input_keys,
            old.param_defaults, old.output_keys)
        trace = evaluate_card(card, EvaluationRequest(
            card.id, base.variant.id, base.request_inputs, base.request_overrides))
        assert templated(trace) == reference(trace)
        assert json.loads(trace.to_json())["outputs"]["q_ult"]["unit"] == "Pa"


def _no_output(card_text: str, equations=None):
    """The card with its output made an intermediate. A card may declare
    no output, and then its partial trace has all the outputs (none) that
    a complete one has."""
    card = json.loads(card_text)
    card["variables"] = [{**v, "role": "intermediate"} if v["role"] == "output" else v
                         for v in card["variables"]]
    if equations:
        card["variants"][0]["equations"] = equations
    return load_card(json.dumps(card))


NO_OUTPUT_DIVERGENT = _no_output(DIVERGENT_CARD)
NO_OUTPUT_OVERFLOW = _no_output(CYCLIC_CARD, [{"target": "y", "sympy": "a*a"},
                                              {"target": "x", "sympy": "y"}])


class TestFaults:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_env_value(self, bad):
        base = BASE["BEARING_CAPACITY_VESIC/general"]
        trace = replaced(base, env={**base.env, "N_q": bad})
        with pytest.raises(NonFiniteValue) as expected:
            strict_json(trace.to_dict())
        with pytest.raises(NonFiniteValue) as got:
            trace.to_json()
        assert got.value.payload() == expected.value.payload()
        assert str(got.value) == str(NonFiniteValue("result"))

    def test_non_finite_echo(self):
        base = BASE["TEST_CYCLE/base"]
        trace = replaced(base, request_inputs={"a": math.inf})
        with pytest.raises(NonFiniteValue):
            trace.to_json()

    @pytest.mark.parametrize("card, variant, inputs", [
        (CATALOG.get_method("BEARING_CAPACITY_TERZAGHI"), "general_shear_failure_strip",
         {"c_prime": "0 kPa", "phi_prime": "30 deg", "gamma": "1e300 kN/m^3",
          "B": "1e300 m", "q": "18 kPa"}),
        (load_card(DIVERGENT_CARD), "base", {}),
        (NO_OUTPUT_DIVERGENT, "base", {}),
        (NO_OUTPUT_OVERFLOW, "base", {"a": 1e300}),
    ], ids=["overflowing-step", "diverging-cycle", "diverging-cycle-no-output",
            "overflowing-step-no-output"])
    def test_partial_trace_is_written_by_the_reference(self, card, variant, inputs):
        with pytest.raises(GeocardError) as fault:
            evaluate_card(card, EvaluationRequest(card.id, variant, inputs))
        partial = fault.value.partial_trace
        assert _template(partial).write(partial) is None
        assert partial.to_json() == reference(partial)
