"""Physical invariants of the bundled bearing-capacity variants.

Metamorphic relations between two evaluations, which need no oracle value
(ROADMAP item 20): for each bundled variant, raising phi', c', c_u, gamma,
q, B or D_f does not lower ``q_ult``. Each draw is a footing in the box
below; each relation raises one input, phi' by 0.5 degrees and any other
by 2 % (from zero, by 2 % of the top of its box). ``EXCEPTIONS`` lists
every pair of a card and an input where the relation does not hold, with
where and why; a pair an exception covers is not checked, and no other
is skipped. The relations guard the physics while the code that computes
it changes.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from geocard.catalog import load_catalog
from geocard.engine import EvaluationRequest, evaluate_card

CATALOG = load_catalog()

# The box of the draws, in card units (radians, kPa, kN/m^3, m). L is
# drawn in [B, 5B] and is never raised: a longer footing has smaller
# shape factors.
BOX = {"phi": (0.0, math.radians(45.0)), "c": (0.0, 100.0), "cu": (0.0, 150.0),
       "gamma": (5.0, 22.0), "B": (0.3, 6.0), "Df": (0.0, 3.0), "q": (0.0, 60.0)}
RAISED = ("phi", "c", "cu", "gamma", "q", "B", "Df")

# Each bundled variant and the card key of each footing quantity it reads.
TERZAGHI = {"phi_prime": "phi", "c_prime": "c", "gamma": "gamma", "B": "B", "q": "q"}
GENERAL = {**TERZAGHI, "L": "L", "D_f": "Df"}
EC7 = {"phi_prime_d": "phi", "c_prime_d": "c", "c_u_d": "cu", "gamma": "gamma",
       "B": "B", "L": "L", "q": "q"}
VARIANTS = {
    ("BEARING_CAPACITY_TERZAGHI", "general_shear_failure_strip"): TERZAGHI,
    ("BEARING_CAPACITY_TERZAGHI", "general_shear_failure_square"): TERZAGHI,
    ("BEARING_CAPACITY_MEYERHOF", "general_shear_vertical"): GENERAL,
    ("BEARING_CAPACITY_VESIC", "general"): GENERAL,
    ("BEARING_CAPACITY_EUROCODE7", "drained"): EC7,
    ("BEARING_CAPACITY_EUROCODE7", "undrained"): EC7,
}


def _straddles_df_equal_b(before, after) -> bool:
    return before["Df"] <= before["B"] < after["Df"]


# (card, raised input) -> (the pairs it covers, its reason).
EXCEPTIONS = {
    ("BEARING_CAPACITY_MEYERHOF", "B"): (
        lambda before, after: True,
        "the depth factors 1 + 0.2 sqrt(K_p) D_f/B and 1 + 0.1 sqrt(K_p) D_f/B "
        "fall as B rises, by more than the self-weight term gains where D_f/B is large"),
    ("BEARING_CAPACITY_VESIC", "B"): (
        lambda before, after: True,
        "Hansen's depth factors grow with D_f/B, so they fall as B rises"),
    ("BEARING_CAPACITY_VESIC", "Df"): (
        _straddles_df_equal_b,
        "Hansen's depth term is D_f/B up to D_f = B and atan(D_f/B) beyond, "
        "a published step down from 1 to pi/4 (ROADMAP item 3)"),
}


@st.composite
def footings(draw) -> dict:
    x = {key: draw(st.floats(low, high)) for key, (low, high) in BOX.items()}
    if draw(st.booleans()):
        x["c"] = 0.0
    x["L"] = x["B"] * draw(st.floats(1.0, 5.0))
    return x


def raised(x: dict, key: str) -> dict:
    if key == "phi":
        step = math.radians(0.5)
    else:
        step = 0.02 * (x[key] or BOX[key][1])
    return {**x, key: x[key] + step}


def q_ult(card_id: str, variant: str, x: dict) -> float:
    card = CATALOG.get_method(card_id)
    inputs = {key: x[source] for key, source in VARIANTS[card_id, variant].items()}
    trace = evaluate_card(card, EvaluationRequest(card_id, variant, inputs))
    return trace.outputs["q_ult"].magnitude


@pytest.mark.parametrize("card_id, variant", list(VARIANTS))
@settings(max_examples=150, deadline=None)
@given(footings())
@example({"phi": 0.0, "c": 0.0, "cu": 0.0, "gamma": 5.0, "B": 0.3, "L": 0.3,
          "Df": 0.0, "q": 0.0})
@example({"phi": math.radians(45.0), "c": 100.0, "cu": 150.0, "gamma": 22.0,
          "B": 6.0, "L": 30.0, "Df": 3.0, "q": 60.0})
def test_q_ult_does_not_fall_as_an_input_rises(card_id, variant, footing):
    before = q_ult(card_id, variant, footing)
    for key in RAISED:
        after_footing = raised(footing, key)
        covered, _ = EXCEPTIONS.get((card_id, key), (lambda *_: False, None))
        if covered(footing, after_footing):
            continue
        after = q_ult(card_id, variant, after_footing)
        assert after >= before, (key, footing, before, after)


# A footing at which each exception's relation fails: the table holds
# none that the cards do not need.
WITNESSES = {
    ("BEARING_CAPACITY_MEYERHOF", "B"): {
        "phi": math.radians(30.0), "c": 50.0, "cu": 0.0, "gamma": 18.0, "B": 0.5,
        "L": 2.5, "Df": 3.0, "q": 0.0},
    ("BEARING_CAPACITY_VESIC", "B"): {
        "phi": math.radians(30.0), "c": 50.0, "cu": 0.0, "gamma": 18.0, "B": 1.0,
        "L": 5.0, "Df": 0.9, "q": 0.0},
    ("BEARING_CAPACITY_VESIC", "Df"): {
        "phi": math.radians(30.0), "c": 50.0, "cu": 0.0, "gamma": 18.0, "B": 1.0,
        "L": 5.0, "Df": 0.99, "q": 10.0},
}


@pytest.mark.parametrize("card_id, key", list(EXCEPTIONS))
def test_each_exception_is_needed(card_id, key):
    variant = next(v for c, v in VARIANTS if c == card_id)
    footing = WITNESSES[card_id, key]
    after_footing = raised(footing, key)
    assert EXCEPTIONS[card_id, key][0](footing, after_footing)
    assert q_ult(card_id, variant, after_footing) < q_ult(card_id, variant, footing)
