"""Seeded inputs for the three workloads.

Every generator takes a ``random.Random`` built from the workload name and
the ``--seed`` argument, so a seed gives the same inputs on every run and
geocard only ever sees the generated values. Each value carries two forms:
what is sent to geocard (a unit-tagged string or a bare card-normalized
number) and the card-unit number the oracles use, which is read back from
the sent text so both sides start from the same digits.
"""

from __future__ import annotations

import random

from oracles import required_width, to_card_units

DESIGN_APPROACHES = ("DA1-C1", "DA1-C2", "DA2", "DA3")

# Alternative units per card unit: (unit name, factor from card unit).
_UNIT_CHOICES = {
    "rad": (("deg", 180.0 / 3.141592653589793), ("rad", 1.0)),
    "kPa": (("kPa", 1.0), ("MPa", 0.001)),
    "m": (("m", 1.0), ("mm", 1000.0)),
    "kN/m^3": (("kN/m^3", 1.0),),
    "kN": (("kN", 1.0),),
}


def _tagged(rng: random.Random, value: float, card_unit: str) -> str:
    unit, factor = rng.choice(_UNIT_CHOICES[card_unit])
    return f"{value * factor!r} {unit}"


def _wire(rng: random.Random, value: float, card_unit: str):
    """Half the time a unit-tagged string, otherwise the bare number."""
    return _tagged(rng, value, card_unit) if rng.random() < 0.5 else value


# ---------------------------------------------------------------- sweep ----

# card id, variant id, {card input key: footing key}
SWEEP_VARIANTS = (
    ("BEARING_CAPACITY_TERZAGHI", "general_shear_failure_strip",
     {"phi_prime": "phi", "c_prime": "c", "gamma": "gamma", "B": "B", "q": "q"}),
    ("BEARING_CAPACITY_TERZAGHI", "general_shear_failure_square",
     {"phi_prime": "phi", "c_prime": "c", "gamma": "gamma", "B": "B", "q": "q"}),
    ("BEARING_CAPACITY_MEYERHOF", "general_shear_vertical",
     {"phi_prime": "phi", "c_prime": "c", "gamma": "gamma", "B": "B", "L": "L",
      "D_f": "Df", "q": "q"}),
    ("BEARING_CAPACITY_VESIC", "general",
     {"phi_prime": "phi", "c_prime": "c", "gamma": "gamma", "B": "B", "L": "L",
      "D_f": "Df", "q": "q"}),
    ("BEARING_CAPACITY_EUROCODE7", "drained",
     {"phi_prime_d": "phi", "c_prime_d": "c", "c_u_d": "cu", "gamma": "gamma",
      "B": "B", "L": "L", "q": "q"}),
    ("BEARING_CAPACITY_EUROCODE7", "undrained",
     {"phi_prime_d": "phi", "c_prime_d": "c", "c_u_d": "cu", "gamma": "gamma",
      "B": "B", "L": "L", "q": "q"}),
)

_FOOTING_UNITS = {"phi": "rad", "c": "kPa", "cu": "kPa", "gamma": "kN/m^3",
                  "B": "m", "L": "m", "Df": "m", "q": "kPa"}


def footing(rng: random.Random) -> dict:
    """One footing: the sent form of each value and its card-unit number."""
    B = rng.uniform(0.5, 5.0)
    drawn = {
        "phi": rng.uniform(1.0, 45.0) * 3.141592653589793 / 180.0,
        "c": 0.0 if rng.random() < 0.25 else rng.uniform(0.5, 50.0),
        "cu": rng.uniform(10.0, 150.0),
        "gamma": rng.uniform(15.0, 22.0),
        "B": B,
        "L": B * rng.uniform(1.0, 10.0),
        "Df": rng.uniform(0.3, 3.0),
        "q": rng.uniform(0.0, 60.0),
    }
    sent = {k: _wire(rng, v, _FOOTING_UNITS[k]) for k, v in drawn.items()}
    x = {k: to_card_units(v) for k, v in sent.items()}
    x["beta"] = 0.0
    overrides = {}
    if rng.random() < 0.3:
        beta = rng.uniform(0.0, 20.0) * 3.141592653589793 / 180.0
        overrides["beta"] = _wire(rng, beta, "rad")
        x["beta"] = to_card_units(overrides["beta"])
    return {"sent": sent, "x": x, "beta_override": overrides}


def variant_inputs(op: dict, mapping: dict) -> dict:
    return {key: op["sent"][source] for key, source in mapping.items()}


def sweep_op(rng: random.Random) -> dict:
    op = footing(rng)
    p = rng.uniform(50.0, 500.0)
    a = rng.uniform(5.0, 100.0)
    op["cyclic_sent"] = {"p": _wire(rng, p, "kPa"), "a": _wire(rng, a, "kPa")}
    op["cyclic_x"] = {k: to_card_units(v) for k, v in op["cyclic_sent"].items()}
    return op


# ---------------------------------------------------------- EC7 scenario ----

# A design is kept only when it describes a footing that can be built: the
# required width (from the oracle, for every Design Approach) is at least
# MIN_WIDTH and the load stays in the middle third of the base, e <= B/6.
# Narrower effective widths are outside the width search's 1 mm bracket
# floor, where one millimetre moves utilization by more than the tolerance.
MIN_WIDTH = 0.5  # m


def scenario(rng: random.Random, index: int) -> dict:
    """A buildable footing design situation whose width search brackets a root.

    Returns the scenario file form (unit-tagged strings), the card-unit
    numbers for the oracle, and the drainage case it is designed for.
    Draws are repeated, from the same generator, until the design is
    buildable (see MIN_WIDTH).
    """
    while True:
        drawn = _scenario_draw(rng, index)
        widths = [required_width(drawn["x"], da, drawn["drainage"])
                  for da in DESIGN_APPROACHES]
        if min(widths) >= MIN_WIDTH and drawn["x"]["e"] <= min(widths) / 6:
            return drawn


def _scenario_draw(rng: random.Random, index: int) -> dict:
    L = rng.uniform(12.0, 30.0)
    D_f = rng.uniform(0.8, 2.5)
    regime = index % 3
    if regime == 0:      # water table above the base
        dw = D_f * rng.uniform(0.0, 0.9)
    elif regime == 1:    # within one width below the base
        dw = D_f + rng.uniform(0.05, 0.6)
    else:                # deeper than the zone of influence
        dw = D_f + rng.uniform(6.0, 20.0)
    # One scenario in three is undrained, one in each groundwater regime,
    # so every round of nine has the same drainage make-up.
    undrained = index % 9 in (0, 4, 8)
    values = {
        "L": (L, "m"),
        "D_f": (D_f, "m"),
        "phi_prime_k": (rng.uniform(28.0, 40.0) * 3.141592653589793 / 180.0, "rad"),
        "c_prime_k": (0.0 if rng.random() < 0.5 else rng.uniform(1.0, 15.0), "kPa"),
        "gamma_k": (rng.uniform(16.0, 21.0), "kN/m^3"),
        "groundwater_depth": (dw, "m"),
        "G_k_col": (L * rng.uniform(150.0, 450.0), "kN"),
        "Q_k": (L * rng.uniform(50.0, 200.0), "kN"),
        "gamma_sw": (rng.uniform(18.0, 25.0), "kN/m^3"),
        "e": (rng.uniform(0.05, 0.3) if rng.random() < 0.3 else 0.0, "m"),
    }
    if undrained:
        values["c_u_k"] = (rng.uniform(40.0, 150.0), "kPa")
    sent = {k: _tagged(rng, v, unit) for k, (v, unit) in values.items()}
    sent["surcharge_model"] = rng.choice(("effective_overburden", "none"))
    sent["name"] = f"seeded_{index}"
    x = {k: to_card_units(v) for k, v in sent.items()
         if k not in ("surcharge_model", "name")}
    x["surcharge_model"] = sent["surcharge_model"]
    x.setdefault("c_u_k", None)
    return {"sent": sent, "x": x,
            "drainage": "undrained" if undrained else "drained"}


# ------------------------------------------------------------ MCP tasks ----

SKILL_NAME = "shallow-foundation-bearing-capacity"
_SKILL_WORDS = ("shallow", "foundation", "bearing", "capacity", "footing",
                "eurocode", "strip", "square", "rectangular", "sizing")
_OTHER_WORDS = ("design", "clay", "sand", "width", "column", "load", "soil",
                "building", "settlement", "water", "table", "check")


def mcp_task(rng: random.Random, index: int) -> dict:
    """One agent task: a problem text, three card evaluations on one
    footing (each on its own variant), a scenario and a Design Approach."""
    words = rng.sample(_SKILL_WORDS, rng.randint(1, 3))
    words += rng.sample(_OTHER_WORDS, rng.randint(0, 4))
    rng.shuffle(words)
    op = footing(rng)
    evaluations = []
    for card_id, variant_id, mapping in rng.sample(SWEEP_VARIANTS, 3):
        tagged = {k: _tagged(rng, op["x"][src], _FOOTING_UNITS[src])
                  for k, src in mapping.items()}
        evaluations.append({"card": card_id, "variant": variant_id,
                            "tagged": tagged,
                            "numeric": {k: op["x"][src] for k, src in mapping.items()}})
    sc = scenario(rng, index)
    return {
        "query": " ".join(words),
        "evaluations": evaluations,
        "gamma_default": _tagged(rng, op["x"]["gamma"], "kN/m^3"),
        "scenario": sc,
        "design_approach": rng.choice(DESIGN_APPROACHES),
        "check_width": 2 * sc["x"]["e"] + rng.uniform(0.8, 5.0),
    }
