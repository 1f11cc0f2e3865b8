"""Physical invariants of the bundled bearing-capacity variants and of the
EC7 width design.

Metamorphic relations between two evaluations, which need no oracle value
(ROADMAP item 20): for each bundled variant, raising phi', c', c_u, gamma,
q, B or D_f does not lower ``q_ult``. Each draw is a footing in the box
below; each relation raises one input, phi' by 0.5 degrees and any other
by 2 % (from zero, by 2 % of the top of its box). For each Design
Approach and drainage, an adverse change to a drawn scenario (G_k or Q_k
up; phi'_k, c'_k, c_u,k or gamma_k down; the water table up; e up; each
by the same steps) does not lower the required width, and a design
passes its own check. ``EXCEPTIONS`` lists every pair of a card (or the
design) and an input where the relation does not hold, with where and
why; a pair an exception covers is not checked, and no other is skipped.
The relations guard the physics while the code that computes it changes.
"""

import math
from dataclasses import replace
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings, strategies as st

from geocard.catalog import load_catalog
from geocard.ec7 import (DESIGN_APPROACHES, FootingScenario, check_footing_uls_ec7,
                         design_footing_width_ec7, load_bundled_scenario)
from geocard.engine import EvaluationRequest, evaluate_card
from geocard.errors import NoBracket

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


def _outside_annex_d(before, after) -> bool:
    return before.outside or after.outside


# The design's fault: ROADMAP item 2's EC7 probe (jrc_a3 with gamma_k =
# 5 kN/m^3 and the water table at the surface designs B_req = 71.57 m for
# L = 21.4 m).
ITEM_2_PROBE = (
    "outside Annex D's domain, gamma_eff <= 0 or B' > L (where s_gamma = "
    "1 - 0.3 B'/L falls towards and below zero), the gamma term no longer "
    "grows with gamma_eff, phi' or B, and the search can miss or pass over "
    "the crossing (ROADMAP item 2's EC7 probe)")

DESIGN = "design_footing_width_ec7"

# (card or the design, changed input) -> (the pairs it covers, its reason).
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
    **{(DESIGN, key): (_outside_annex_d, ITEM_2_PROBE)
       for key in ("phi_prime_k", "gamma_k", "groundwater_depth", "e")},
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


@pytest.mark.parametrize("card_id, key", [pair for pair in EXCEPTIONS if pair[0] != DESIGN])
def test_each_exception_is_needed(card_id, key):
    variant = next(v for c, v in VARIANTS if c == card_id)
    footing = WITNESSES[card_id, key]
    after_footing = raised(footing, key)
    assert EXCEPTIONS[card_id, key][0](footing, after_footing)
    assert q_ult(card_id, variant, after_footing) < q_ult(card_id, variant, footing)


# ------------------------------------------------------------ EC7 design ----

# The box of the scenario draws, in card units (m, radians, kPa, kN/m^3,
# kN). gamma_k reaches below the unit weight of water, so a buoyant
# gamma_eff <= 0 is drawn, and L reaches below the widths designed.
SCENARIO_BOX = {
    "L": (1.0, 30.0), "D_f": (0.2, 3.0), "phi_prime_k": (0.0, math.radians(45.0)),
    "c_prime_k": (0.0, 50.0), "c_u_k": (5.0, 150.0), "gamma_k": (5.0, 22.0),
    "groundwater_depth": (0.0, 10.0), "G_k_col": (50.0, 5000.0), "Q_k": (0.0, 3000.0),
    "gamma_sw": (0.0, 25.0), "e": (0.0, 0.5)}
# The adverse changes: these raised, the others lowered (to zero at most).
WORSENED_UP = ("G_k_col", "Q_k", "e")
WORSENED = WORSENED_UP + ("phi_prime_k", "c_prime_k", "c_u_k", "gamma_k",
                          "groundwater_depth")
JRC_A3 = load_bundled_scenario()


@st.composite
def scenarios(draw) -> FootingScenario:
    x = {key: draw(st.floats(low, high)) for key, (low, high) in SCENARIO_BOX.items()}
    if draw(st.booleans()):
        x["c_prime_k"] = 0.0
    return FootingScenario(**x, surcharge_model=draw(
        st.sampled_from(["effective_overburden", "none"])))


def worsened(scenario: FootingScenario, key: str) -> FootingScenario:
    value = getattr(scenario, key)
    if key == "phi_prime_k":
        step = math.radians(0.5)
    else:
        step = 0.02 * (value or SCENARIO_BOX[key][1])
    return replace(scenario, **{
        key: value + step if key in WORSENED_UP else max(value - step, 0.0)})


class Design(NamedTuple):
    B_req: float  # inf where the search finds no width
    outside: bool  # whether the search reached outside Annex D's domain


def design(scenario: FootingScenario, da: str, drainage: str) -> Design:
    """The design at a tolerance far below any change's effect. A drained
    design reaches outside Annex D where gamma_eff <= 0 or B' > L at its
    width, or where it finds none: its bracket then doubled far past L.
    An undrained check reads neither gamma nor s_gamma."""
    try:
        result = design_footing_width_ec7(scenario, da, tolerance=1e-9, drainage=drainage)
    except NoBracket:
        return Design(math.inf, drainage == "drained")
    env = result.check.trace.env  # gamma is gamma_eff, and B is B'
    return Design(result.B_req, drainage == "drained"
                  and (env["gamma"] <= 0 or env["B"] > scenario.L))


ITEM_2_SCENARIO = replace(JRC_A3, gamma_k=5.0, groundwater_depth=0.0)
DESIGN_CASES = [(da, drainage) for da in DESIGN_APPROACHES
                for drainage in ("drained", "undrained")]


@pytest.mark.parametrize("da, drainage", DESIGN_CASES)
@settings(max_examples=60, deadline=None)
@given(scenarios())
@example(replace(ITEM_2_SCENARIO, c_u_k=50.0))
@example(replace(JRC_A3, c_u_k=50.0))
def test_b_req_does_not_fall_under_an_adverse_change(da, drainage, scenario):
    before = design(scenario, da, drainage)
    for key in WORSENED:
        after = design(worsened(scenario, key), da, drainage)
        covered, _ = EXCEPTIONS.get((DESIGN, key), (lambda *_: False, None))
        if covered(before, after):
            continue
        assert after.B_req >= before.B_req, (key, scenario, before, after)


@pytest.mark.parametrize("da, drainage", DESIGN_CASES)
@settings(max_examples=60, deadline=None)
@given(scenarios())
@example(replace(ITEM_2_SCENARIO, c_u_k=50.0))
def test_a_design_passes_its_own_check(da, drainage, scenario):
    try:
        B_req = design_footing_width_ec7(scenario, da, drainage=drainage).B_req
    except NoBracket:
        return
    assert check_footing_uls_ec7(scenario, da, B_req, drainage=drainage).passed


# A scenario and Design Approach at which each design exception's relation
# fails, drained: gamma_eff <= 0 for gamma_k and the water table, B' > L
# for phi' and e.
DESIGN_WITNESSES = {
    (DESIGN, "gamma_k"): (ITEM_2_SCENARIO, "DA1-C1"),
    (DESIGN, "groundwater_depth"): (replace(ITEM_2_SCENARIO, groundwater_depth=3.0),
                                    "DA1-C1"),
    (DESIGN, "phi_prime_k"): (FootingScenario(
        L=1.0, D_f=2.2, phi_prime_k=math.radians(3.0), c_prime_k=5.7, gamma_k=19.4,
        groundwater_depth=7.5, G_k_col=2700.0, Q_k=900.0, gamma_sw=19.8, e=0.15,
        surcharge_model="none"), "DA1-C1"),
    (DESIGN, "e"): (FootingScenario(
        L=5.8, D_f=1.7, phi_prime_k=math.radians(44.3), c_prime_k=0.0, gamma_k=18.8,
        groundwater_depth=5.7, G_k_col=4050.0, Q_k=700.0, gamma_sw=22.5, e=0.39,
        surcharge_model="none"), "DA2"),
}


@pytest.mark.parametrize("exception", list(DESIGN_WITNESSES))
def test_each_design_exception_is_needed(exception):
    scenario, da = DESIGN_WITNESSES[exception]
    before = design(scenario, da, "drained")
    after = design(worsened(scenario, exception[1]), da, "drained")
    assert EXCEPTIONS[exception][0](before, after)
    assert after.B_req < before.B_req
