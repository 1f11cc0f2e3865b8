"""The trace writer against its reference: ``to_json()`` must equal
``json.dumps(trace.to_dict(), indent=2, allow_nan=False)`` byte for byte,
for every bundled variant, the cyclic cards and generated cards, and must
fail where the reference fails."""

import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from geocard.cards import MethodCard, load_card
from geocard.catalog import load_catalog
from json.encoder import encode_basestring_ascii

from geocard.ec7 import check_footing_uls_ec7, load_scenario
from geocard.engine import (EvaluationRequest, EvaluationTrace, PartialTrace,
                            Template, evaluate_card, strict_json, to_reply)
from geocard.errors import GeocardError, NonFiniteValue
from geocard.units import Quantity, default_registry
from test_ec7 import overflowing_scenario
from test_engine import BENCH_CYCLIC, CYCLIC_CARD, DIVERGENT_CARD
from test_golden_traces import _requests

REGISTRY = default_registry()
CATALOG = load_catalog()

# One output and no input: its trace template reads one env value.
CONSTANT_CARD = json.dumps({
    "id": "TEST_CONSTANT",
    "title": "A constant",
    "category": "Testing",
    "description": "y = 2.",
    "variables": [
        {"key": "y", "name": "y", "role": "output", "unit": "dimensionless"},
    ],
    "variants": [
        {"id": "base", "title": "Base", "equations": [{"target": "y", "sympy": "2"}]},
    ],
    "sources": [{"title": "Internal test fixture."}],
})


def replaced(trace, **changes) -> EvaluationTrace:
    """A new trace with the fields of ``trace``, ``changes`` applied."""
    fields = {name: getattr(trace, name) for name in EvaluationTrace.__slots__}
    return EvaluationTrace(**{**fields, **changes})


def reference(trace) -> str:
    return json.dumps(trace.to_dict(), indent=2, allow_nan=False)


def templated(trace) -> str:
    """to_json(), checked to come from the variant's template, whose
    reply, written from the template's escaped pieces, must be the text's
    own JSON string literal."""
    assert trace._written() is not None
    text, reply = trace.to_json(), to_reply(trace)
    assert type(reply) is str and reply == encode_basestring_ascii(text)
    return text


def _base_traces() -> dict:
    """One evaluated trace per bundled variant, per cyclic card and of
    the constant card."""
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
    constant = load_card(CONSTANT_CARD)
    traces["TEST_CONSTANT/base"] = evaluate_card(
        constant, EvaluationRequest(constant.id, "base", {}))
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


class Text(str):
    """A str subclass, as a client's own string type may be."""


@st.composite
def _requests_of_base(draw) -> tuple:
    """A trace of ``BASE`` and a request for its variant: each input near
    its base value, and each drawn param override, as a bare number (an
    int where the value is whole), unit-tagged text, a str subclass of
    that text, or a Quantity, in the card's unit."""
    name = draw(st.sampled_from(sorted(BASE)))
    base = BASE[name]
    units = base.card.units

    def sent(key, magnitude):
        value = magnitude * draw(st.sampled_from([1.0, 0.5, 2.0]) | st.floats(0.9, 1.1))
        form = draw(st.sampled_from(["number", "text", "subclass", "quantity"]))
        if form == "number":
            return int(value) if value.is_integer() and draw(st.booleans()) else value
        if form == "quantity":
            return Quantity(value, units[key])
        text = f"{value!r} {units[key].name}"
        return Text(text) if form == "subclass" else text

    inputs = {k: sent(k, base.env[k]) for k in sorted(base.request_inputs)}
    params = base.card.param_defaults
    keys = draw(st.sets(st.sampled_from(sorted(params)))) if params else ()
    overrides = {k: sent(k, params[k] + draw(st.floats(0.0, 0.1))) for k in sorted(keys)}
    return name, inputs, overrides


TERZAGHI_STRIP = "BEARING_CAPACITY_TERZAGHI/general_shear_failure_strip"


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
        env = {k: data.draw(NUMBERS) for k in base.env}
        cycles = [{**cycle, "iterations": data.draw(st.integers(1, 200)),
                   "residual": data.draw(NUMBERS)}
                  for cycle in base.diagnostics["iterative_cycles"]]
        trace = replaced(
            base, env=env,
            request_inputs={k: data.draw(ECHOES) for k in base.request_inputs},
            request_overrides=data.draw(st.dictionaries(TEXT, ECHOES, max_size=3)),
            diagnostics={"iterative_cycles": cycles})
        assert templated(trace) == reference(trace)

    @settings(max_examples=150, deadline=None)
    @given(_requests_of_base())
    @example((TERZAGHI_STRIP, {"c_prime": "0 kPa", "phi_prime": "30 deg",
                               "gamma": Text("18 kN/m^3"), "B": "2 m", "q": "18 kPa"}, {}))
    @example((TERZAGHI_STRIP, {"c_prime": "0 kPa", "phi_prime": "30 deg",
                               "gamma": "18 kN/m\u00b3", "B": "2 m", "q": "18 kPa"}, {}))
    def test_evaluated_request(self, drawn):
        """An evaluation of every bundled variant and of the cyclic cards,
        from tagged, bare and Quantity inputs and overrides, writes its
        complete trace from the template as the reference writes it."""
        name, inputs, overrides = drawn
        card, variant = BASE[name].card, BASE[name].variant
        trace = evaluate_card(card, EvaluationRequest(card.id, variant.id, inputs, overrides))
        assert trace._written() is not None
        assert trace.to_json() == strict_json(trace.to_dict()) == reference(trace)


def _distinct(value: float) -> float:
    """A float equal to ``value``, bit for bit, that is another object."""
    copy = float.fromhex(value.hex())
    assert copy is not value
    return copy


def _twin(draw, value):
    """``value`` itself, or a value equal to it that is another object and
    may be written otherwise: 2 beside 2.0, -0.0 beside 0.0."""
    if type(value) is not float:
        return value
    return draw(st.sampled_from([
        value, _distinct(value),
        *([int(value)] if value.is_integer() else []),
        *([-value] if value == 0.0 else [])]))


class TestIdentityReuse:
    """The writer writes an echo, of an input or of an override, that is
    the env's own value object from the env's text, as it writes every
    output, which is read from the env. Equal but distinct values are
    written from their own: a writer that matched on equality would write
    2.0 for 2, or 0.0 for -0.0."""

    @pytest.mark.parametrize("name", list(BASE))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_echoes_and_outputs_of_env_objects(self, name, data):
        base = BASE[name]
        values = st.one_of(st.sampled_from([0.0, -0.0, 2.0, -7.0, 1e16]), FLOATS)
        env = {k: _distinct(data.draw(values)) for k in base.env}
        if data.draw(st.booleans()):  # not every value a float
            env[data.draw(st.sampled_from(sorted(env)))] = data.draw(
                st.one_of(st.integers(-10, 10), st.none()))
        params = sorted(base.card.param_defaults)
        keys = data.draw(st.sets(st.sampled_from(params))) if params else ()
        trace = replaced(
            base, env=env,
            request_inputs={k: _twin(data.draw, env[k]) for k in base.request_inputs},
            request_overrides={k: _twin(data.draw, env[k]) for k in keys})
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


class TestCut:
    @pytest.mark.parametrize("make_body", [
        lambda plant: [plant("a")] * 2,
        lambda plant: [plant("a"), plant("b")][1:],
    ], ids=["written-twice", "not-written"])
    def test_each_planted_hole_is_written_once(self, make_body):
        with pytest.raises(ValueError, match="planted once"):
            Template.cut(make_body)


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


def _evaluation(card, variant, inputs):
    return lambda: evaluate_card(card, EvaluationRequest(card.id, variant, inputs))


class TestNumber:
    @pytest.mark.parametrize("value", [0, -1, 2**63, 10**100, True, False, None])
    def test_int_and_bool_as_json_writes_them(self, value):
        assert strict_json(value) == json.dumps(value)


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

    @pytest.mark.parametrize("run", [
        _evaluation(CATALOG.get_method("BEARING_CAPACITY_TERZAGHI"),
                    "general_shear_failure_strip",
                    {"c_prime": "0 kPa", "phi_prime": "30 deg", "gamma": "1e300 kN/m^3",
                     "B": "1e300 m", "q": "18 kPa"}),
        _evaluation(load_card(DIVERGENT_CARD), "base", {}),
        _evaluation(NO_OUTPUT_DIVERGENT, "base", {}),
        _evaluation(NO_OUTPUT_OVERFLOW, "base", {"a": 1e300}),
        # N_q overflows in the staged run of the steps that read no width,
        # so the check's walk runs the whole plan.
        lambda: check_footing_uls_ec7(
            load_scenario(overflowing_scenario({"phi_prime_k": "89.99 deg"})), "DA3", 2.0),
    ], ids=["overflowing-step", "diverging-cycle", "diverging-cycle-no-output",
            "overflowing-step-no-output", "overflowing-staged-step"])
    def test_partial_trace_is_written_by_the_reference(self, run):
        with pytest.raises(GeocardError) as fault:
            run()
        partial = fault.value.partial_trace
        assert type(partial) is PartialTrace and partial.outputs == {}
        assert partial._written() is None
        assert partial.to_json() == reference(partial)
        assert to_reply(partial) == encode_basestring_ascii(reference(partial))
