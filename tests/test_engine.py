"""Engine tests: normalization, plan-ordered solving, traces, determinism."""

import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from geocard import engine
from geocard.cards import load_card, validate_dimensions
from geocard.catalog import load_catalog
from geocard.engine import (
    EvaluationRequest,
    evaluate_card,
    normalize_inputs,
)
from geocard.errors import (
    DimensionMismatch,
    GeocardError,
    MathDomain,
    MissingInput,
    MissingUnit,
    NoBranchTaken,
    NonConvergence,
    NonFiniteValue,
    UnexpectedInput,
    UnresolvedVariable,
)
from geocard.units import Quantity, default_registry
from test_cards import CARD_TEXTS, assert_steps_read_bound_symbols

CATALOG = load_catalog()
TERZAGHI = CATALOG.get_method("BEARING_CAPACITY_TERZAGHI")
EC7 = CATALOG.get_method("BEARING_CAPACITY_EUROCODE7")

TERZAGHI_STRIP_INPUTS = {
    "c_prime": "0 kPa", "phi_prime": "30 deg", "gamma": "18 kN/m^3",
    "B": "2 m", "q": "18 kPa",
}


def run(card, variant, inputs, overrides=None):
    return evaluate_card(card, EvaluationRequest(
        card_id=card.id, variant_id=variant, inputs=inputs,
        overrides=overrides or {}))


class TestNormalizeInputs:
    def test_unit_tagged_angle(self):
        values = normalize_inputs(EC7, {
            "phi_prime_d": "38 deg", "c_prime_d": 0, "c_u_d": 0,
            "gamma": 0, "q": 0, "B": 1.0, "L": 1.0})
        assert values["phi_prime_d"] == pytest.approx(0.6632251158, abs=1e-9)

    def test_quantity_object_mm_to_m(self):
        reg = default_registry()
        values = normalize_inputs(EC7, {
            "phi_prime_d": 0, "c_prime_d": 0, "c_u_d": 0, "gamma": 0, "q": 0,
            "B": Quantity(1497.0, reg.resolve("mm")), "L": 21.4})
        assert values["B"] == pytest.approx(1.497, rel=1e-12)

    def test_pressure_for_angle_rejected(self):
        with pytest.raises(DimensionMismatch):
            normalize_inputs(EC7, {
                "phi_prime_d": "38 kPa", "c_prime_d": 0, "c_u_d": 0,
                "gamma": 0, "q": 0, "B": 1.0, "L": 1.0})

    def test_bare_reals_are_card_normalized(self):
        values = normalize_inputs(TERZAGHI, {
            "c_prime": 0, "phi_prime": 0.5235987755982988, "gamma": 18,
            "B": 2, "q": 18})
        assert values["phi_prime"] == 0.5235987755982988

    def test_missing_input(self):
        with pytest.raises(MissingInput) as err:
            normalize_inputs(TERZAGHI, {"c_prime": 0})
        assert str(err.value) == "missing required input(s): B, gamma, phi_prime, q"

    def test_unexpected_input(self):
        inputs = dict(TERZAGHI_STRIP_INPUTS)
        inputs["bogus"] = 1
        with pytest.raises(UnexpectedInput):
            normalize_inputs(TERZAGHI, inputs)


class TestTerzaghiEvaluation:
    def test_strip_example(self):
        """phi 30 deg, c' 0, gamma 18, B 2, q 18: the classic factor check."""
        trace = run(TERZAGHI, "general_shear_failure_strip",
                    TERZAGHI_STRIP_INPUTS)
        by_target = {s["target"]: s["value"] for s in trace.steps}
        assert by_target["N_q"] == pytest.approx(18.401, abs=5e-4)
        assert by_target["N_c"] == pytest.approx(30.140, abs=5e-4)
        assert by_target["N_gamma"] == pytest.approx(22.402, abs=5e-4)
        assert trace.outputs["q_ult"].magnitude == pytest.approx(734.46, abs=5e-3)
        assert trace.outputs["q_ult"].unit.name == "kPa"

    def test_phi_zero_collapses_to_cohesion_term(self):
        """phi'=0: N_gamma = 0 and N_c = 5.14, so q_ult = 5.14 c'."""
        trace = run(TERZAGHI, "general_shear_failure_strip", {
            "c_prime": "20 kPa", "phi_prime": "0 deg", "gamma": "18 kN/m^3",
            "B": "1 m", "q": "0 kPa"})
        assert trace.outputs["q_ult"].magnitude == pytest.approx(102.8, rel=1e-12)

    def test_square_variant_frozen_oracle_value(self):
        # Frozen: 1.3*10*Nc + 18*Nq + 0.4*18*1.5*Ng at phi = 30 deg
        trace = run(TERZAGHI, "general_shear_failure_square", {
            "c_prime": "10 kPa", "phi_prime": "30 deg", "gamma": "18 kN/m^3",
            "B": "1.5 m", "q": "18 kPa"})
        assert trace.outputs["q_ult"].magnitude == pytest.approx(
            964.982213, abs=1e-6)

    def test_unit_invariance(self):
        """Same physics in different units gives identical outputs."""
        base = run(TERZAGHI, "general_shear_failure_strip",
                   TERZAGHI_STRIP_INPUTS)
        exotic = run(TERZAGHI, "general_shear_failure_strip", {
            "c_prime": "0 MPa",
            "phi_prime": f"{math.radians(30)!r} radians",
            "gamma": "18 kN/m^3",
            "B": "2000 mm",
            "q": "0.018 MPa"})
        for key in base.outputs:
            assert exotic.outputs[key].magnitude == pytest.approx(
                base.outputs[key].magnitude, rel=1e-12)


class TestEc7CardEvaluation:
    def test_table_of_factors_at_design_angle(self):
        """DA1-C2 design angle atan(tan 38 / 1.25), B 1.497, L 21.4."""
        phi_d = math.atan(math.tan(math.radians(38.0)) / 1.25)
        trace = run(EC7, "drained", {
            "phi_prime_d": phi_d, "c_prime_d": 0, "c_u_d": 0, "gamma": 0,
            "q": 0, "B": 1.497, "L": 21.4})
        by_target = {s["target"]: s["value"] for s in trace.steps}
        assert by_target["N_q"] == pytest.approx(23.19, abs=0.005)
        assert by_target["N_c"] == pytest.approx(35.51, abs=0.005)
        assert by_target["N_gamma"] == pytest.approx(27.74, abs=0.005)
        assert by_target["s_q"] == pytest.approx(1.037, abs=0.005)
        assert by_target["s_gamma"] == pytest.approx(0.979, abs=0.005)

    def test_undrained_matches_oracle(self):
        trace = run(EC7, "undrained", {
            "phi_prime_d": 0, "c_prime_d": 0, "c_u_d": "60 kPa", "gamma": 0,
            "q": "18 kPa", "B": "2 m", "L": "4 m"})
        assert trace.outputs["q_ult"].magnitude == pytest.approx(
            oracles.ec7_undrained_qult(60.0, 2.0, 4.0, 18.0), rel=1e-12)


class TestTraceContract:
    def test_steps_are_contiguous_and_complete(self):
        trace = run(TERZAGHI, "general_shear_failure_strip",
                    TERZAGHI_STRIP_INPUTS)
        assert [s["index"] for s in trace.steps] == list(range(len(trace.steps)))
        targets = [s["target"] for s in trace.steps]
        assert len(targets) == len(set(targets))
        variant = TERZAGHI.variant("general_shear_failure_strip")
        assert set(targets) == {eq.target for eq in variant.equations}

    def test_trace_carries_sources(self):
        trace = run(TERZAGHI, "general_shear_failure_strip",
                    TERZAGHI_STRIP_INPUTS)
        assert any("Terzaghi" in s.title for s in trace.card.sources)

    def test_step_inputs_are_resolved_values(self):
        trace = run(TERZAGHI, "general_shear_failure_strip",
                    TERZAGHI_STRIP_INPUTS)
        q_ult_step = trace.steps[-1]
        assert q_ult_step["target"] == "q_ult"
        assert q_ult_step["inputs"]["N_q"] == pytest.approx(18.401, abs=5e-4)
        assert q_ult_step["inputs"]["B"] == 2.0

    def test_canonical_json_key_order(self):
        trace = run(TERZAGHI, "general_shear_failure_strip",
                    TERZAGHI_STRIP_INPUTS)
        body = json.loads(trace.to_json())
        assert list(body) == ["request", "steps", "outputs", "sources",
                              "diagnostics"]
        assert list(body["request"]) == ["card", "variant", "inputs",
                                         "overrides"]

    def test_byte_identical_reruns(self):
        first = run(TERZAGHI, "general_shear_failure_strip",
                    TERZAGHI_STRIP_INPUTS).to_json()
        second = run(TERZAGHI, "general_shear_failure_strip",
                     TERZAGHI_STRIP_INPUTS).to_json()
        assert first.encode() == second.encode()


CYCLIC_CARD = json.dumps({
    "id": "TEST_CYCLE",
    "title": "Coupled pair solved by fixed-point iteration",
    "category": "Testing",
    "description": "x and y depend on each other; closed form x = (0.5 + a)/0.75.",
    "variables": [
        {"key": "x", "name": "x", "role": "output", "unit": "dimensionless"},
        {"key": "y", "name": "y", "role": "intermediate", "unit": "dimensionless"},
        {"key": "a", "name": "a", "role": "input", "unit": "dimensionless"},
    ],
    "variants": [
        {"id": "base", "title": "Base", "equations": [
            {"target": "y", "sympy": "0.5*x + 1"},
            {"target": "x", "sympy": "0.5*y + a"},
        ]},
    ],
    "sources": [{"title": "Internal test fixture."}],
})

DIVERGENT_CARD = json.dumps({
    "id": "TEST_DIVERGE",
    "title": "Diverging pair",
    "category": "Testing",
    "description": "Fixed-point iteration cannot converge.",
    "variables": [
        {"key": "x", "name": "x", "role": "output", "unit": "dimensionless"},
        {"key": "y", "name": "y", "role": "intermediate", "unit": "dimensionless"},
    ],
    "variants": [
        {"id": "base", "title": "Base", "equations": [
            {"target": "y", "sympy": "2*x"},
            {"target": "x", "sympy": "2*y"},
        ]},
    ],
    "sources": [{"title": "Internal test fixture."}],
})


class TestIterativeSolving:
    def test_cycle_converges_to_closed_form(self):
        card = load_card(CYCLIC_CARD)
        trace = run(card, "base", {"a": 1.0})
        assert trace.outputs["x"].magnitude == pytest.approx(2.0, rel=1e-8)
        assert all(s["method"] == "iterative" for s in trace.steps)
        cycles = trace.diagnostics["iterative_cycles"]
        assert len(cycles) == 1
        assert set(cycles[0]["variables"]) == {"x", "y"}
        assert 0 < cycles[0]["iterations"] <= 200
        assert cycles[0]["residual"] < 1e-9

    def test_divergent_cycle_raises(self):
        card = load_card(DIVERGENT_CARD)
        with pytest.raises(NonConvergence) as err:
            run(card, "base", {})
        assert str(err.value) == ("fixed-point iteration over {x, y} did not "
                                  "converge after 200 iterations (residual 7.500e-01)")

    def test_overflow_divergence_is_non_convergence(self):
        # Multiplicative blow-up overflows float range silently (inf, no
        # OverflowError); the engine must not mistake the saturated
        # residual for convergence.
        fast = json.loads(DIVERGENT_CARD)
        fast["id"] = "TEST_BLOWUP"
        fast["variants"][0]["equations"] = [
            {"target": "y", "sympy": "1e100*x"},
            {"target": "x", "sympy": "1e100*y"},
        ]
        card = load_card(json.dumps(fast))
        with pytest.raises(NonConvergence):
            run(card, "base", {})

    def test_cycle_determinism(self):
        card = load_card(CYCLIC_CARD)
        first = run(card, "base", {"a": 1.0}).to_json()
        second = run(card, "base", {"a": 1.0}).to_json()
        assert first == second


CONDITIONAL_CARD_TEMPLATE = {
    "id": "TEST_CONDITIONS",
    "title": "Conditional equation",
    "category": "Testing",
    "description": "Target with a Piecewise of mutually exclusive conditions.",
    "variables": [
        {"key": "y", "name": "y", "role": "output", "unit": "dimensionless"},
        {"key": "x", "name": "x", "role": "input", "unit": "dimensionless"},
    ],
    "variants": [
        {"id": "base", "title": "Base", "equations": [
            {"target": "y", "sympy": "Piecewise((x, x > 0), (0 - x, x <= 0))"},
        ]},
    ],
    "sources": [{"title": "Internal test fixture."}],
}


class TestConditions:
    def test_exclusive_conditions_select_branch(self):
        card = load_card(json.dumps(CONDITIONAL_CARD_TEMPLATE))
        assert run(card, "base", {"x": 3.0}).outputs["y"].magnitude == 3.0
        assert run(card, "base", {"x": -3.0}).outputs["y"].magnitude == 3.0

    def test_no_true_condition_is_unresolved(self):
        never = json.loads(json.dumps(CONDITIONAL_CARD_TEMPLATE))
        never["variants"][0]["equations"] = [
            {"target": "y", "sympy": "Piecewise((x, x > 0))"}]
        card = load_card(json.dumps(never))
        with pytest.raises(NoBranchTaken) as err:
            run(card, "base", {"x": -1.0})
        fault = err.value
        assert fault.failed_step == {"target": "y",
                                     "expression": "Piecewise((x, x > 0))",
                                     "inputs": {"x": -1.0}}
        assert fault.partial_trace.steps == ()
        assert fault.payload()["error"] == "no_branch_taken"


class TestFaults:
    def test_math_domain_carries_partial_trace(self):
        card_dict = json.loads(CYCLIC_CARD)
        card_dict["id"] = "TEST_FAULT"
        card_dict["variants"][0]["equations"] = [
            {"target": "y", "sympy": "a"},
            {"target": "x", "sympy": "log(0 - y)"},
        ]
        card = load_card(json.dumps(card_dict))
        with pytest.raises(MathDomain) as err:
            run(card, "base", {"a": 2.0})
        fault = err.value
        assert fault.failed_step["target"] == "x"
        steps = fault.partial_trace.steps
        assert [s["target"] for s in steps] == ["y"]

    def test_symbol_free_fault_raises_at_evaluation(self):
        # 1/0 reads no symbol but is not folded at load: the card loads and
        # audits clean, and the step faults when the walk reaches it.
        card_dict = json.loads(CYCLIC_CARD)
        card_dict["id"] = "TEST_FAULT"
        card_dict["variants"][0]["equations"] = [
            {"target": "x", "sympy": "2*a"},
            {"target": "y", "sympy": "1/0 + x"},
        ]
        card = load_card(json.dumps(card_dict))
        assert validate_dimensions(card) == []
        with pytest.raises(MathDomain) as err:
            run(card, "base", {"a": 2.0})
        payload = err.value.payload()
        assert payload["message"] == "division by zero in 1/0"
        assert payload["step"] == {"target": "y", "expression": "1/0 + x",
                                   "inputs": {"x": 4.0}}
        assert payload["partial_trace"]["steps"] == [{
            "index": 0, "target": "x", "expression": "2*a", "inputs": {"a": 2.0},
            "value": 4.0, "unit": "dimensionless", "description": None,
            "method": "direct"}]
        assert payload["partial_trace"]["outputs"] == {}

    def test_unknown_variant(self):
        from geocard.errors import UnknownVariant
        with pytest.raises(UnknownVariant):
            run(TERZAGHI, "nope", TERZAGHI_STRIP_INPUTS)

    def test_override_non_param_rejected(self):
        with pytest.raises(UnexpectedInput):
            run(TERZAGHI, "general_shear_failure_strip",
                TERZAGHI_STRIP_INPUTS, overrides={"B": 3.0})


class TestNanOperand:
    """A NaN formed inside a step (x*x*x overflows, and inf - inf is NaN)
    fails that step: it never vanishes into a value."""

    @pytest.mark.parametrize("expression, error, message", [
        ("Max(0, x*x*x - x*x*x)", MathDomain, "NaN operand in Max(0, x*x*x - x*x*x)"),
        ("Min(x*x*x - x*x*x, 5)", MathDomain, "NaN operand in Min(x*x*x - x*x*x, 5)"),
        ("Min(5, x*x*x - x*x*x)", MathDomain, "NaN operand in Min(5, x*x*x - x*x*x)"),
        ("Piecewise((1, x*x*x - x*x*x > 0), (2, True))", MathDomain,
         "NaN operand in x*x*x - x*x*x > 0"),
        ("(x*x*x - x*x*x)**0", MathDomain, "NaN operand in (x*x*x - x*x*x)**0"),
        ("1**(x*x*x - x*x*x)", MathDomain, "NaN operand in 1**(x*x*x - x*x*x)"),
        ("(x*x*x - x*x*x)**2", NonFiniteValue, "'y' is not a finite number"),
    ])
    def test_fails_its_step(self, expression, error, message):
        card = load_card(dimensionless_card(
            "TEST_NAN", ["y"], ["w"], ["x"],
            [{"target": "w", "sympy": "2*x"}, {"target": "y", "sympy": expression}]))
        with pytest.raises(error) as err:
            run(card, "base", {"x": 1e200})
        assert str(err.value) == message
        assert err.value.failed_step == {"target": "y", "expression": expression,
                                         "inputs": {"x": 1e200}}
        assert [s["target"] for s in err.value.partial_trace.steps] == ["w"]


class TestParamOverrides:
    def test_vesic_inclination_override(self):
        vesic = CATALOG.get_method("BEARING_CAPACITY_VESIC")
        inputs = {"phi_prime": "30 deg", "c_prime": "10 kPa",
                  "gamma": "18 kN/m^3", "B": "2 m", "L": "4 m",
                  "D_f": "1 m", "q": "18 kPa"}
        vertical = run(vesic, "general", inputs)
        inclined = run(vesic, "general", inputs, overrides={"beta": "10 deg"})
        expected_vertical = oracles.vesic_qult(
            math.radians(30), 10.0, 18.0, 2.0, 4.0, 1.0, 18.0, beta=0.0)
        expected_inclined = oracles.vesic_qult(
            math.radians(30), 10.0, 18.0, 2.0, 4.0, 1.0, 18.0,
            beta=math.radians(10))
        assert vertical.outputs["q_ult"].magnitude == pytest.approx(
            expected_vertical, rel=1e-12)
        assert inclined.outputs["q_ult"].magnitude == pytest.approx(
            expected_inclined, rel=1e-12)
        assert inclined.outputs["q_ult"].magnitude < \
            vertical.outputs["q_ult"].magnitude


class TestOracleEquivalenceProperty:
    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=math.radians(1), max_value=math.radians(45)))
    def test_terzaghi_factors_match_oracle(self, phi):
        trace = run(TERZAGHI, "general_shear_failure_strip", {
            "c_prime": 0, "phi_prime": phi, "gamma": 0, "B": 1, "q": 0})
        by_target = {s["target"]: s["value"] for s in trace.steps}
        nq, nc, ng = oracles.terzaghi_factors(phi)
        assert by_target["N_q"] == pytest.approx(nq, rel=1e-10)
        assert by_target["N_c"] == pytest.approx(nc, rel=1e-10)
        assert by_target["N_gamma"] == pytest.approx(ng, rel=1e-10)


# Every variant that reads a friction angle, by the key of that angle.
DRAINED = [(CATALOG.get_method(card_id), variant, phi_key) for card_id, variant, phi_key in (
    ("BEARING_CAPACITY_TERZAGHI", "general_shear_failure_strip", "phi_prime"),
    ("BEARING_CAPACITY_TERZAGHI", "general_shear_failure_square", "phi_prime"),
    ("BEARING_CAPACITY_MEYERHOF", "general_shear_vertical", "phi_prime"),
    ("BEARING_CAPACITY_VESIC", "general", "phi_prime"),
    ("BEARING_CAPACITY_EUROCODE7", "drained", "phi_prime_d"),
)]

# A friction angle in [0, 0.9] rad: log-uniform down to 1e-300, a
# subnormal, or zero.
FRICTION_ANGLES = st.one_of(
    st.floats(-300.0, math.log10(0.9)).map(lambda x: 10.0 ** x),
    st.floats(0.0, 2.2250738585072014e-308),
    st.floats(0.0, 0.9),
)


def factor(card, variant, phi_key, target, phi):
    """One factor of a variant's plan at friction angle ``phi``, from the
    card's own equations for N_q and ``target``."""
    equations = {eq.target: eq for eq in card.variant(variant).direct}
    env = {phi_key: phi}
    env["N_q"] = equations["N_q"].compiled(env)
    return equations[target].compiled(env)


class TestFrictionAngleSeam:
    """Below about 1e-16 rad N_q rounds to 1 - 2.2e-16, so the closed form
    (N_q - 1)*cot(phi) of N_c, and the (N_q - 1)*tan(...) forms of N_gamma,
    turn negative; the cards take the phi = 0 limit below 1e-8 rad."""

    def test_tiny_angle_probe(self):
        trace = run(TERZAGHI, "general_shear_failure_strip", {
            "phi_prime": "1e-15 deg", "c_prime": "10 kPa", "gamma": "18 kN/m^3",
            "B": "2 m", "q": "18 kPa"})
        assert round(trace.outputs["q_ult"].magnitude, 1) == 69.4
        at_zero = run(TERZAGHI, "general_shear_failure_strip", {
            "phi_prime": 0.0, "c_prime": 10.0, "gamma": 18.0, "B": 2.0, "q": 18.0})
        assert trace.outputs["q_ult"].magnitude == pytest.approx(
            at_zero.outputs["q_ult"].magnitude, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), phi=FRICTION_ANGLES)
    def test_q_ult_is_not_negative(self, data, phi):
        """Non-negative inputs give a non-negative q_ult, also with c' = q = 0,
        where only the N_gamma term is left."""
        card, variant, phi_key = data.draw(st.sampled_from(DRAINED))
        c_key = "c_prime_d" if phi_key == "phi_prime_d" else "c_prime"
        c, q = data.draw(st.sampled_from(
            [(0.0, 0.0), (0.0, 0.1), (0.1, 0.0), (None, None)]))
        B = data.draw(st.floats(0.1, 10.0))
        inputs = {
            phi_key: phi,
            c_key: data.draw(st.floats(0.1, 200.0)) if c is None else c,
            "q": data.draw(st.floats(0.1, 200.0)) if q is None else q,
            "gamma": data.draw(st.floats(0.0, 25.0)), "B": B,
            "L": data.draw(st.floats(B, 50.0)), "D_f": data.draw(st.floats(0.0, 3.0)),
            "c_u_d": 0.0,
        }
        trace = run(card, variant, {k: v for k, v in inputs.items()
                                    if k in card.input_keys})
        assert trace.outputs["q_ult"].magnitude >= 0.0

    @pytest.mark.parametrize("card, variant, phi_key",
                             [d for d in DRAINED if d[0].id in
                              ("BEARING_CAPACITY_MEYERHOF", "BEARING_CAPACITY_EUROCODE7")],
                             ids=lambda d: getattr(d, "id", d))
    def test_n_gamma_sign_below_1e_16_rad(self, card, variant, phi_key):
        assert factor(card, variant, phi_key, "N_gamma", 1e-17) >= 0.0

    @settings(max_examples=300, deadline=None)
    @given(card_variant=st.sampled_from(DRAINED), phi=FRICTION_ANGLES)
    def test_n_c_never_below_its_value_at_zero(self, card_variant, phi):
        card, variant, phi_key = card_variant
        assert (factor(card, variant, phi_key, "N_c", phi)
                >= factor(card, variant, phi_key, "N_c", 0.0))

    @settings(max_examples=300, deadline=None)
    @given(card_variant=st.sampled_from(DRAINED),
           phis=st.lists(FRICTION_ANGLES, min_size=2, max_size=2),
           c=st.one_of(st.just(0.0), st.floats(0.1, 200.0)),
           q=st.one_of(st.just(0.0), st.floats(0.1, 300.0)),
           gamma=st.floats(0.0, 25.0), B=st.floats(0.1, 10.0),
           aspect=st.floats(1.0, 20.0), D_f=st.floats(0.0, 3.0))
    @example(card_variant=DRAINED[-1], phis=[1e-8, 1.0000001e-8], c=50.0,
             q=0.0, gamma=18.0, B=2.0, aspect=1.0, D_f=0.0)
    def test_q_ult_does_not_fall_as_phi_rises(self, card_variant, phis, c, q,
                                              gamma, B, aspect, D_f):
        """With every other input fixed, q_ult does not fall as the friction
        angle rises, across the seam too (1e-7 relative for rounding)."""
        card, variant, phi_key = card_variant
        c_key = "c_prime_d" if phi_key == "phi_prime_d" else "c_prime"
        fixed = {c_key: c, "q": q, "gamma": gamma, "B": B, "L": aspect * B,
                 "D_f": D_f, "c_u_d": 0.0}
        lower, higher = (
            run(card, variant, {k: v for k, v in {**fixed, phi_key: phi}.items()
                                if k in card.input_keys}).outputs["q_ult"].magnitude
            for phi in sorted(phis))
        assert higher >= lower * (1.0 - 1e-7)

    @pytest.mark.parametrize("phi", [1e-8, 1e-12, 1e-17, 1e-300, 5e-324])
    def test_n_c_takes_the_limit_at_and_below_the_seam(self, phi):
        for card, variant, phi_key in DRAINED:
            assert (factor(card, variant, phi_key, "N_c", phi)
                    == factor(card, variant, phi_key, "N_c", 0.0))


def dimensionless_card(card_id, outputs, intermediates, inputs, equations):
    variables = [{"key": k, "name": k, "role": role, "unit": "dimensionless"}
                 for role, keys in (("output", outputs),
                                    ("intermediate", intermediates),
                                    ("input", inputs))
                 for k in keys]
    return json.dumps({
        "id": card_id, "title": card_id, "category": "Testing",
        "description": "Plan fixture.", "variables": variables,
        "variants": [{"id": "base", "title": "Base", "equations": equations}],
        "sources": [{"title": "Internal test fixture."}],
    })


class TestPlan:
    """The evaluation order is fixed once, at load time."""

    def test_no_step_reads_an_unbound_symbol(self):
        for text in CARD_TEXTS.values():  # every bundled card, and the cyclic one
            assert_steps_read_bound_symbols(load_card(text))

    def test_out_of_order_variant_runs_in_repeated_pass_order(self):
        card = load_card(dimensionless_card(
            "TEST_ORDER", ["c"], ["b", "d"], ["a"], [
                {"target": "c", "sympy": "b + d"},
                {"target": "b", "sympy": "2*a"},
                {"target": "d", "sympy": "a + 1"},
            ]))
        variant = card.variant("base")
        assert [eq.target for eq in variant.direct] == ["b", "d", "c"]
        assert variant.iterative == ()
        trace = run(card, "base", {"a": 3.0})
        assert [s["target"] for s in trace.steps] == ["b", "d", "c"]
        assert all(s["method"] == "direct" for s in trace.steps)
        assert trace.outputs["c"].magnitude == 10.0

    def test_target_downstream_of_cycle_is_iterated_with_it(self):
        card = load_card(dimensionless_card(
            "TEST_DOWNSTREAM", ["x", "z"], ["y", "w"], ["a"], [
                {"target": "z", "sympy": "x + 1"},
                {"target": "y", "sympy": "0.5*x + w"},
                {"target": "x", "sympy": "0.5*y + a"},
                {"target": "w", "sympy": "2*a"},
            ]))
        variant = card.variant("base")
        assert [eq.target for eq in variant.direct] == ["w"]
        assert [eq.target for eq in variant.iterative] == ["z", "y", "x"]
        trace = run(card, "base", {"a": 1.0})
        assert [(s["target"], s["method"]) for s in trace.steps] == [
            ("w", "direct"), ("z", "iterative"), ("y", "iterative"),
            ("x", "iterative")]
        assert trace.diagnostics["iterative_cycles"][0]["variables"] == \
            ["z", "y", "x"]
        # x = 0.5*(0.5*x + 2) + 1  =>  x = 8/3
        assert trace.outputs["x"].magnitude == pytest.approx(8 / 3, rel=1e-8)
        assert trace.outputs["z"].magnitude == pytest.approx(11 / 3, rel=1e-8)

    def test_conditioned_target_waits_for_every_alternative(self):
        # y's second branch needs m, so y runs after m even when x > 0
        # selects the branch that does not.
        card = load_card(dimensionless_card(
            "TEST_UNION", ["y"], ["m"], ["x"], [
                {"target": "y", "sympy": "Piecewise((x, x > 0), (m, x <= 0))"},
                {"target": "m", "sympy": "0 - x"},
            ]))
        trace = run(card, "base", {"x": 2.0})
        assert [s["target"] for s in trace.steps] == ["m", "y"]
        assert trace.steps[1]["inputs"] == {"m": -2.0, "x": 2.0}
        assert trace.outputs["y"].magnitude == 2.0

    def test_unproduced_intermediate_fails_at_load(self):
        text = dimensionless_card("TEST_UNPRODUCED", ["y"], ["m"], ["a"], [
            {"target": "y", "sympy": "a + m"}])
        with pytest.raises(UnresolvedVariable) as err:
            load_card(text)
        assert str(err.value) == ("variable 'm', needed for 'y' in variant 'base', "
                                  "is neither given nor produced by an equation")

    def test_unproduced_symbol_in_untaken_alternative_fails_at_load(self):
        text = dimensionless_card("TEST_UNPRODUCED", ["y"], ["m"], ["a"], [
            {"target": "y", "sympy": "Piecewise((a, a > 0), (m, a <= 0))"}])
        with pytest.raises(UnresolvedVariable) as err:
            load_card(text)
        assert str(err.value) == ("variable 'm', needed for 'y' in variant 'base', "
                                  "is neither given nor produced by an equation")

    def test_unproduced_symbol_behind_cycle_fails_at_load(self):
        text = dimensionless_card("TEST_UNPRODUCED", ["x"], ["y", "m"], [], [
            {"target": "x", "sympy": "0.5*y"},
            {"target": "y", "sympy": "0.5*x + m"}])
        with pytest.raises(UnresolvedVariable):
            load_card(text)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("value, error, message", [
        pytest.param(value, NonFiniteValue, "'q' is not a finite number", id=name)
        for name, value in [
            ("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf),
            ("1e400 kPa", "1e400 kPa"), ("huge-int", 10 ** 400),
            # an int magnitude too large for a float, met on conversion to kPa
            ("huge-int-quantity", Quantity(10 ** 400, default_registry().resolve("Pa"))),
            ("1e306 MPa", "1e306 MPa"),  # finite text, overflows on conversion to kPa
        ]] + [
        # text that names no unit is refused before its magnitude is judged
        pytest.param("1e400", MissingUnit, "value(s) need a unit tag: q", id="1e400"),
    ])
    def test_rejected(self, value, error, message):
        inputs = dict(TERZAGHI_STRIP_INPUTS, q=value)
        with pytest.raises(error) as err:
            run(TERZAGHI, "general_shear_failure_strip", inputs)
        assert str(err.value) == message

    def test_rejected_in_overrides(self):
        vesic = CATALOG.get_method("BEARING_CAPACITY_VESIC")
        inputs = {"phi_prime": "30 deg", "c_prime": "10 kPa",
                  "gamma": "18 kN/m^3", "B": "2 m", "L": "4 m",
                  "D_f": "1 m", "q": "18 kPa"}
        with pytest.raises(NonFiniteValue):
            run(vesic, "general", inputs, overrides={"beta": math.nan})

    def test_overflowing_direct_step_is_rejected_with_partial_trace(self):
        # Float * and + overflow to inf without raising an OverflowError.
        inputs = dict(TERZAGHI_STRIP_INPUTS, gamma="1e300 kN/m^3", B="1e300 m")
        with pytest.raises(NonFiniteValue) as err:
            run(TERZAGHI, "general_shear_failure_strip", inputs)
        assert str(err.value) == "'q_ult' is not a finite number"
        assert err.value.failed_step["target"] == "q_ult"
        assert err.value.failed_step["inputs"]["gamma"] == 1e300
        steps = err.value.partial_trace.steps
        assert steps and "q_ult" not in [s["target"] for s in steps]
        json.dumps(err.value.payload(), allow_nan=False)


def _cycle_fault_card(y_expression):
    """A direct step w, then the cycle {y, x} that cannot converge."""
    return load_card(dimensionless_card(
        "TEST_CYCLE_FAULT", ["x"], ["y", "w"], ["a"], [
            {"target": "w", "sympy": "2*a"},
            {"target": "y", "sympy": y_expression},
            {"target": "x", "sympy": "y"},
        ]))


def _cycle_fault_payload(message, y_expression, x):
    """The fault names the cycle's step at the fault; the partial trace
    holds the direct step before the cycle and no cycle diagnostics."""
    return {
        "error": "non_convergence",
        "message": message,
        "step": {"target": "y", "expression": y_expression,
                 "inputs": {"w": 1.0, "x": x}},
        "partial_trace": {
            "request": {"card": "TEST_CYCLE_FAULT", "variant": "base",
                        "inputs": {"a": 0.5}, "overrides": {}},
            "steps": [{"index": 0, "target": "w", "expression": "2*a",
                       "inputs": {"a": 0.5}, "value": 1.0,
                       "unit": "dimensionless", "description": None,
                       "method": "direct"}],
            "outputs": {},
            "sources": [{"title": "Internal test fixture.", "url": None}],
            "diagnostics": {"iterative_cycles": []},
        },
    }


class TestFixedPointFaultPayload:
    def test_iteration_cap(self):
        # x grows by w = 1 per iteration, so the residual never drops.
        card = _cycle_fault_card("x + w")
        with pytest.raises(NonConvergence) as err:
            run(card, "base", {"a": 0.5})
        assert err.value.payload() == _cycle_fault_payload(
            "fixed-point iteration over {x, y} did not converge after 200 "
            "iterations (residual 4.975e-03)", "x + w", 201.0)

    def test_overflowing_cycle(self):
        card = _cycle_fault_card("1e200*x + w")
        with pytest.raises(NonConvergence) as err:
            run(card, "base", {"a": 0.5})
        assert err.value.payload() == _cycle_fault_payload(
            "fixed-point iteration over {x, y} did not converge after 2 "
            "iterations (residual inf)", "1e200*x + w", 1e200)


class TestLazyTrace:
    """A trace builds its steps when they are read, from values that no
    later evaluation and no edit of the caller's request can reach."""

    @pytest.mark.parametrize("card, variant, inputs, later", [
        (TERZAGHI, "general_shear_failure_strip", TERZAGHI_STRIP_INPUTS,
         lambda i: {**TERZAGHI_STRIP_INPUTS, "B": f"{1 + i / 10} m"}),
        (load_card(CYCLIC_CARD), "base", {"a": 1.0},
         lambda i: {"a": 1.0 + i}),
    ], ids=["terzaghi", "cycle"])
    def test_serialized_late_equals_serialized_at_once(self, card, variant,
                                                       inputs, later):
        at_once = run(card, variant, inputs).to_json()
        trace = run(card, variant, inputs)
        for i in range(50):
            run(card, variant, later(i)).to_json()
        assert trace.to_json().encode() == at_once.encode()

    def test_partial_trace_serialized_late(self):
        card = _cycle_fault_card("x + w")
        with pytest.raises(NonConvergence) as first:
            run(card, "base", {"a": 0.5})
        at_once = first.value.partial_trace.to_json()
        with pytest.raises(NonConvergence) as second:
            run(card, "base", {"a": 0.5})
        for i in range(50):
            with pytest.raises(NonConvergence):
                run(card, "base", {"a": 0.25 + i})
        assert second.value.partial_trace.to_json() == at_once

    def test_editing_the_request_after_evaluation(self):
        card = CATALOG.get_method("BEARING_CAPACITY_VESIC")
        variant = card.variants[0].id
        inputs = {key: 1.0 for key in sorted(card.input_keys)}
        overrides = {key: 0.1 for key in sorted(card.param_defaults)}
        assert overrides
        expected = run(card, variant, dict(inputs), dict(overrides)).to_json()
        trace = run(card, variant, inputs, overrides)
        for key in list(inputs):
            inputs[key] = "7 kPa"
        inputs["extra"] = 3.0
        overrides.clear()
        assert trace.to_json() == expected


def _reference_walk(direct, block, env):
    """``engine._walk`` as written with ``max()``: the reference of the
    fixed-point block, whose values, iterations, residual and faults the
    engine's must repeat bit for bit."""
    try:
        for eq in direct:
            value = eq.compiled(env)
            if not math.isfinite(value):
                raise NonFiniteValue(eq.target)
            env[eq.target] = value
        if not block:
            return []
        cycle = [eq.target for eq in block]
        search = f"fixed-point iteration over {{{', '.join(sorted(cycle))}}}"
        for target in cycle:
            env[target] = 1.0
        for iterations in range(1, engine.FIXED_POINT_MAX_ITER + 1):
            residual = 0.0
            for eq in block:
                old, new = env[eq.target], eq.compiled(env)
                if not math.isfinite(new):
                    raise NonConvergence(search, iterations, "residual", math.inf)
                denom = max(abs(old), abs(new))
                change = 0.0 if denom == 0.0 else abs(new - old) / denom
                residual = max(residual, change)
                env[eq.target] = new
            if residual < engine.FIXED_POINT_TOL:
                return [{"variables": cycle, "iterations": iterations,
                         "residual": residual}]
        eq = block[0]
        raise NonConvergence(search, engine.FIXED_POINT_MAX_ITER, "residual", residual)
    except GeocardError as exc:
        exc.failed_step = {"target": eq.target, "expression": eq.sympy,
                           "inputs": {k: env[k] for k in eq.symbols}}
        raise


def _walked(walk, card, variant, inputs):
    """What ``walk`` leaves of the variant at ``inputs``: the cycle
    diagnostics and every bound value by its repr (bits, the sign of a zero
    included), or the fault's class, payload and failed step."""
    env = {**normalize_inputs(card, inputs), **card.param_defaults}
    plan = card.variant(variant)
    try:
        cycles = walk(plan.direct, plan.iterative, env)
    except GeocardError as exc:
        return type(exc), exc.payload(), repr(exc.failed_step)
    return repr(cycles), {k: repr(v) for k, v in env.items()}


# x = a y and y = a x: exactly 0.0 from the second iteration when a is a
# zero, so the block's denominators are 0.0; otherwise a constant relative
# change of 1 - a^2, which converges only when that is below the tolerance.
ZERO_CARD = load_card(dimensionless_card(
    "TEST_CYCLE_ZERO", ["x"], ["y"], ["a"], [
        {"target": "y", "sympy": "a*x"}, {"target": "x", "sympy": "a*y"}]))
BENCH_CYCLIC = load_card(
    (Path(__file__).parents[1] / "perfbench/cyclic_card.json").read_text("utf-8"))
MAGNITUDES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1 - 1e-10, 1e-300, 1e300]),
    st.floats(-1e6, 1e6), st.floats(allow_nan=False, allow_infinity=False))


class TestFixedPointMatchesMaxLoop:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_same_walk_as_the_max_loop(self, data):
        for card, variant, keys in (
                (BENCH_CYCLIC, "coupled", ("p", "a")),
                (load_card(CYCLIC_CARD), "base", ("a",)),
                (load_card(DIVERGENT_CARD), "base", ()),
                (ZERO_CARD, "base", ("a",)),
                (_cycle_fault_card("x + w"), "base", ("a",)),
                (_cycle_fault_card("1e200*x + w"), "base", ("a",))):
            inputs = {key: data.draw(MAGNITUDES) for key in keys}
            assert _walked(engine._walk, card, variant, inputs) == \
                _walked(_reference_walk, card, variant, inputs)

    @pytest.mark.parametrize("a", [0.0, -0.0])
    def test_zero_block(self, a):
        """The zero-denominator case: every change after the first
        iteration is skipped, so the residual is exactly 0.0."""
        walked = _walked(engine._walk, ZERO_CARD, "base", {"a": a})
        assert walked == _walked(_reference_walk, ZERO_CARD, "base", {"a": a})
        cycle, = run(ZERO_CARD, "base", {"a": a}).diagnostics["iterative_cycles"]
        assert (cycle["iterations"], repr(cycle["residual"])) == (2, "0.0")
