"""Every step of every bundled variant, recomputed at 60 digits.

A test-local evaluator walks each step's parsed equation with mpmath at
``mp.dps = 60``, from the float inputs that step was given, and the
engine's float value must agree to a relative error of 1e-13. Piecewise
branches are chosen by the engine's own compiled condition on the float
inputs, so this checks the arithmetic of each step, not where a seam
falls. mpmath is a test dependency only; without it the module is skipped.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from geocard import expression as ex
from geocard.catalog import load_catalog
from geocard.engine import EvaluationRequest, evaluate_card

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

CATALOG = load_catalog()
VARIANTS = [(card, variant.id) for card in CATALOG.cards.values()
            for variant in card.variants]

REL_TOL = 1e-13

_CONSTANTS = {"pi": lambda: mp.pi, "e": lambda: mp.e}

_FUNCTIONS = {
    "sin": mpmath.sin, "cos": mpmath.cos, "tan": mpmath.tan,
    "cot": mpmath.cot, "asin": mpmath.asin, "acos": mpmath.acos,
    "atan": mpmath.atan, "atan2": mpmath.atan2, "exp": mpmath.exp,
    "log": mpmath.log, "sqrt": mpmath.sqrt, "Abs": mpmath.fabs,
    "Min": min, "Max": max,
}

_BINARY = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
           "*": lambda a, b: a * b, "/": lambda a, b: a / b,
           "**": mpmath.power}


def exact(node, env: dict, floats: dict):
    """``node`` at the working precision; ``env`` holds the inputs as mpf,
    ``floats`` the same inputs as the engine's floats."""
    if isinstance(node, ex.Number):
        return mp.mpf(repr(node.value))  # the card's decimal literal
    if isinstance(node, ex.Constant):
        return _CONSTANTS[node.name]()
    if isinstance(node, ex.Symbol):
        return env[node.name]
    if isinstance(node, ex.Unary):
        return -exact(node.operand, env, floats)
    if isinstance(node, ex.Binary):
        return _BINARY[node.op](exact(node.left, env, floats),
                                exact(node.right, env, floats))
    if isinstance(node, ex.Call):
        return _FUNCTIONS[node.func](*(exact(a, env, floats) for a in node.args))
    if isinstance(node, ex.Piecewise):
        for value, condition in node.branches:
            if ex.compile_expr(condition)(floats):
                return exact(value, env, floats)
        raise AssertionError("no branch taken")
    raise TypeError(f"not an arithmetic node: {node!r}")


def degrees(lo, hi):
    return st.floats(math.radians(lo), math.radians(hi))


def zero_or(lo, hi):
    """0, or a value in [lo, hi]: a subnormal depth or cohesion is not a
    physical value, and its products lose their digits to underflow."""
    return st.one_of(st.just(0.0), st.floats(lo, hi))


def draw_inputs(data, card) -> dict:
    """Card-unit floats in physical ranges for each of the card's inputs."""
    B = data.draw(st.floats(0.3, 10.0))
    ranges = {
        "phi_prime": degrees(1.0, 45.0), "phi_prime_d": degrees(1.0, 45.0),
        "c_prime": zero_or(0.1, 200.0), "c_prime_d": zero_or(0.1, 200.0),
        "c_u_d": st.floats(1.0, 300.0), "gamma": st.floats(5.0, 25.0),
        "L": st.floats(B, 50.0), "D_f": zero_or(0.01, 5.0),
        "q": zero_or(0.1, 300.0),
    }
    return {k: B if k == "B" else data.draw(ranges[k])
            for k in sorted(card.input_keys)}


def check_every_step(trace):
    equations = {eq.target: eq for eq in trace.variant.equations}
    with mpmath.workdps(60):
        for step in trace.steps:
            floats = step["inputs"]
            env = {k: mp.mpf(v) for k, v in floats.items()}
            want = exact(equations[step["target"]].expr, env, floats)
            got = step["value"]
            if want == 0:
                assert got == 0.0, step
            else:
                error = abs((mp.mpf(got) - want) / want)
                assert error <= REL_TOL, (step["target"], float(error), step)


@pytest.mark.parametrize("card, variant", VARIANTS,
                         ids=[f"{c.id}/{v}" for c, v in VARIANTS])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_step_matches_60_digits(card, variant, data):
    inputs = draw_inputs(data, card)
    check_every_step(evaluate_card(
        card, EvaluationRequest(card.id, variant, inputs)))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_vesic_with_a_beta_override(data):
    """beta is a share of phi' kept 10 % away from it, so that (1 - beta/phi')
    in i_gamma does not cancel; at or above phi' i_gamma is 0. The share
    stops at 1.8, so beta <= 81 deg stays 10 % away from the right angle,
    where (1 - beta/right_angle) in i_c cancels in the same way."""
    card = CATALOG.get_method("BEARING_CAPACITY_VESIC")
    inputs = draw_inputs(data, card)
    share = data.draw(st.one_of(st.floats(0.0, 0.9), st.floats(1.0, 1.8)))
    overrides = {"beta": share * inputs["phi_prime"]}
    check_every_step(evaluate_card(
        card, EvaluationRequest(card.id, "general", inputs, overrides)))


def test_vesic_i_c_at_the_largest_drawn_beta():
    """At beta = 1.8 * 45 deg, i_c = 0.01 is still right in absolute terms."""
    card = CATALOG.get_method("BEARING_CAPACITY_VESIC")
    phi = math.radians(45.0)
    inputs = {"phi_prime": phi, "c_prime": 10.0, "gamma": 18.0, "B": 2.0,
              "L": 3.0, "D_f": 1.0, "q": 18.0}
    trace = evaluate_card(card, EvaluationRequest(
        card.id, "general", inputs, {"beta": 1.8 * phi}))
    step = next(s for s in trace.steps if s["target"] == "i_c")
    with mpmath.workdps(60):
        beta, right_angle = (mp.mpf(step["inputs"][k])
                             for k in ("beta", "right_angle"))
        want = (1 - beta / right_angle) ** 2
        assert abs(mp.mpf(step["value"]) - want) <= 1e-17
