"""Eurocode 7 partial-factor machinery and the ULS footing workflow.

Covers the four EN 1997-1 Design Approach presets (Annex A partial
factors), characteristic-to-design parameter reduction, design action
assembly including foundation self-weight, the ULS bearing check against
the Annex D card, and the bisection search for the required width. A
trial width of the search computes the utilization only, and the check,
with the card's complete trace, is built once, at the width the search
returns, from that trial's env. The card's steps that read neither the
width nor the unit weight below the base (the bearing capacity factors)
are bound once per check or search, when the card is staged
(``engine.stage``), and each trial calls the rest's closures itself. Where
they do not serve, at a fault say, the trial evaluates the card with
``evaluate_card``, which raises every fault. The check and the search
read the Annex D card from the catalog they are given, or from the
process-wide ``catalog.default_catalog()`` when given none, so the catalog
is loaded and audited at most once per process.

Groundwater handling follows standard practice: effective overburden uses
total stress above the water table and buoyant weight below; the unit
weight entering the 0.5*gamma*B*N_gamma term interpolates linearly between
buoyant and total weight while the water table lies within one footing
width below the base. The scenario's ``surcharge_model`` can neglect the
overburden term entirely ("none"), the conservative convention some worked
examples adopt.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from .cards import ABSENT, decode_record, instance_of, read_record
from .catalog import Catalog, default_catalog
from .engine import EvaluationRequest, EvaluationTrace, evaluate_card, stage
from .errors import (GeocardError, InvalidGeometry, MissingUnit, NoBracket,
                     NonFiniteValue, SchemaError, UnknownDesignApproach)
from .units import DATA_DIR, to_magnitude

GAMMA_WATER = 9.81  # kN/m^3

EC7_CARD_ID = "BEARING_CAPACITY_EUROCODE7"

SURCHARGE_MODELS = ("effective_overburden", "none")


@dataclass(frozen=True)
class PartialFactorSet:
    """The EN 1997-1 partial factors for one Design Approach."""

    design_approach: str
    gamma_G: float
    gamma_Q: float
    gamma_phi: float
    gamma_c: float
    gamma_cu: float
    gamma_gamma: float
    gamma_R: float
    sets: str = ""  # e.g. "A2+M2+R1"

    def wire_dict(self) -> dict:
        """The six-factor partials object used on the tool wire."""
        return {name: getattr(self, name) for name in _WIRE_FACTORS}


_WIRE_FACTORS = ("gamma_G", "gamma_Q", "gamma_phi", "gamma_c", "gamma_gamma",
                 "gamma_R")


# The sets of partial factors of EN 1997-1 Annex A: on actions (Table A.3),
# on soil parameters (Table A.4) and on bearing resistance (Table A.5).
_ANNEX_A_SETS = {
    "A1": {"gamma_G": 1.35, "gamma_Q": 1.5},
    "A2": {"gamma_G": 1.0, "gamma_Q": 1.3},
    "M1": {"gamma_phi": 1.0, "gamma_c": 1.0, "gamma_cu": 1.0, "gamma_gamma": 1.0},
    "M2": {"gamma_phi": 1.25, "gamma_c": 1.25, "gamma_cu": 1.4, "gamma_gamma": 1.0},
    "R1": {"gamma_R": 1.0}, "R2": {"gamma_R": 1.4}, "R3": {"gamma_R": 1.0},
}
_PRESETS = {  # each Design Approach combines one set of each table
    da: PartialFactorSet(da, **_ANNEX_A_SETS[a], **_ANNEX_A_SETS[m],
                         **_ANNEX_A_SETS[r], sets=f"{a}+{m}+{r}")
    for da, a, m, r in (("DA1-C1", "A1", "M1", "R1"), ("DA1-C2", "A2", "M2", "R1"),
                        ("DA2", "A1", "M1", "R2"), ("DA3", "A1", "M2", "R3"))
}

DESIGN_APPROACHES = tuple(_PRESETS)


def get_ec7_preset_partials(design_approach: str) -> PartialFactorSet:
    """Partial factor preset for DA1-C1, DA1-C2, DA2, or DA3."""
    try:
        return _PRESETS[design_approach]
    except KeyError:
        raise UnknownDesignApproach(design_approach) from None


@dataclass(frozen=True)
class FootingScenario:
    """A strip/rectangular footing design situation.

    All values are card-normalized: metres, kPa, kN, kN/m^3, radians.
    The width is not part of the scenario: the check takes it as an
    argument and the design searches for it.
    """

    L: float
    D_f: float
    phi_prime_k: float
    c_prime_k: float
    gamma_k: float
    groundwater_depth: float
    G_k_col: float
    Q_k: float
    gamma_sw: float
    e: float = 0.0
    c_u_k: float | None = None
    surcharge_model: str = "effective_overburden"
    name: str = ""
    jrc_verified: bool = False

    def __post_init__(self):
        for label, value in (("L", self.L), ("D_f", self.D_f),
                             ("gamma_k", self.gamma_k)):
            if not value > 0:
                raise SchemaError(f"$.{label}", "must be positive")
        for label, value in (("e", self.e), ("c_prime_k", self.c_prime_k),
                             ("c_u_k", self.c_u_k or 0.0),
                             ("gamma_sw", self.gamma_sw),
                             ("G_k_col", self.G_k_col), ("Q_k", self.Q_k),
                             ("groundwater_depth", self.groundwater_depth)):
            if not value >= 0:
                raise SchemaError(f"$.{label}", "must be non-negative")
        if not 0.0 <= self.phi_prime_k < math.pi / 2:
            raise SchemaError("$.phi_prime_k",
                              "must lie in [0, 90) degrees")
        if self.surcharge_model not in SURCHARGE_MODELS:
            raise SchemaError("$.surcharge_model",
                              f"must be one of {SURCHARGE_MODELS}")


def _quantity(unit_name: str):
    """The kind of a scenario quantity in the card unit ``unit_name``, named
    by its field: text naming its unit, so a number is MissingUnit; null is absent."""
    def read(value, path, name):
        if isinstance(value, str):  # the common case, with one check
            return to_magnitude(value, unit_name, name)
        if type(value) in (int, float):
            raise MissingUnit([name])
        return ABSENT if value is None else to_magnitude(value, unit_name, name)
    return read


SCENARIO_FIELDS = {
    "L": (_quantity("m"), True), "D_f": (_quantity("m"), True),
    "phi_prime_k": (_quantity("radians"), True),
    "c_prime_k": (_quantity("kPa"), True),
    "gamma_k": (_quantity("kN/m^3"), True),
    "groundwater_depth": (_quantity("m"), True),
    "G_k_col": (_quantity("kN"), True), "Q_k": (_quantity("kN"), True),
    "gamma_sw": (_quantity("kN/m^3"), True),
    "e": (_quantity("m"), False), "c_u_k": (_quantity("kPa"), False),
    "surcharge_model": (lambda value, path, name: value, False),  # checked on creation
    "name": (instance_of(str), False), "jrc_verified": (instance_of(bool), False),
    "notes": (lambda value, path, name: ABSENT, False),  # for the reader only
}


def load_scenario(json_text: str) -> FootingScenario:
    """Parse a scenario file: unit-tagged strings for every physical field.

    A key that names no field is a SchemaError, so a misspelled optional
    field cannot fall back to its default unseen.
    """
    return read_scenario(decode_record(json_text, "scenario"))


def read_scenario(obj: dict) -> FootingScenario:
    """A scenario from its decoded JSON object; ``load_scenario`` reads
    the object in a text through it, so both raise the same errors."""
    return FootingScenario(**read_record(obj, SCENARIO_FIELDS, "$"))


def load_bundled_scenario(name: str = "jrc_a3") -> FootingScenario:
    return load_scenario(Path(bundled_scenario_path(name)).read_text("utf-8"))


def bundled_scenario_path(name: str = "jrc_a3") -> str:
    return str(DATA_DIR / "scenarios" / f"{name}.json")


# ------------------------------------------------------------- ULS check ----

def _same(value):  # the reference writer's ``put``: a body scalar as it is
    return value


@dataclass(frozen=True)
class UlsCheckResult:
    design_approach: str
    B: float
    B_effective: float
    V_d: float
    R_d: float
    utilization: float
    passed: bool
    design_parameters: dict
    partial_factors: PartialFactorSet
    trace: EvaluationTrace
    drainage: str

    def to_dict(self) -> dict:
        return self._body(self.trace.to_dict())

    def _body(self, trace, put=_same) -> dict:
        """The reply body around ``trace``, each other scalar ``put(it)`` in
        document order: the one statement of what the body holds."""
        design, pf = self.design_parameters, self.partial_factors
        return {
            "design_approach": put(self.design_approach),
            "drainage": put(self.drainage),
            "B": put(self.B),
            "B_effective": put(self.B_effective),
            "V_d": put(self.V_d),
            "R_d": put(self.R_d),
            # finite, or infinite where R_d <= 0
            "utilization": put(None if self.utilization == math.inf else self.utilization),
            "pass": put(self.passed),
            "design_parameters": {k: put(design[k]) for k in sorted(design)},
            "partial_factors": {k: put(getattr(pf, k)) for k in _WIRE_FACTORS},
            "trace": trace,
        }

    def _shape(self) -> tuple:
        """What fixes the body's shape besides the trace's variant."""
        return tuple(self.design_parameters)

    def _written(self):
        return self.trace._written(self)


def _uls_checker(scenario: FootingScenario, design_approach: str,
                 catalog: Catalog | None, drainage: str, first_B: float
                 ) -> tuple[Callable[[float], tuple], Callable[[tuple], UlsCheckResult]]:
    """``(trial, result)``: ``trial(B)`` is the utilization of the ULS check
    at width ``B`` and its state, and ``result(state)`` the check with the
    card's trace.

    ``first_B`` is the first width the caller tries. Before it returns, the
    checker raises, in order: the Design Approach, the width (non-finite as
    NonFiniteValue naming ``B``, then ``B <= 0``, then ``B - 2e <= 0``),
    the card, the drainage and ``c_u_k``. No later width needs a check: the
    search halves no lower than its least width and doubles a finite one at
    most 24 times. It then stages the card's variant with ``gamma`` and
    ``B`` free (``engine.stage``), which binds the bearing capacity factors
    once. A trial builds no trace. It runs the staged steps itself, and
    calls ``evaluate_card`` on the same inputs at a fault, a free value
    that is not a finite float, or when the variant was not staged; so it
    raises what ``evaluate_card`` raises, partial trace included, or a
    non-finite ``V_d`` or ``R_d``. The trace ``evaluate_card`` returns is
    the one ``result`` keeps.

    The design values do not depend on the width, so they are computed once
    here, into the dict the result shows as ``design_parameters``:
    phi'_d = atan(tan(phi'_k)/gamma_phi), the cohesions and the unit weight
    divided by their factors, and the effective overburden q'_d at founding
    level (total weight above the water table, buoyant below; 0 under the
    "none" surcharge model). Each trial adds gamma_eff, the unit weight
    below the base (buoyant with the water table at or above the base,
    total once it lies B' or more below, linear between), and the design
    action V_d = gamma_G (G_k,col + gamma_sw B D_f L) + gamma_Q Q_k on the
    full width. What a trial reads of the scenario and the partial factors
    (e, L, gamma_sw, G_k,col, gamma_R, gamma_G and gamma_Q Q_k) is read
    once, here.
    """
    pf = get_ec7_preset_partials(design_approach)
    if not math.isfinite(first_B):  # a NaN passes the comparisons below
        raise NonFiniteValue("B")
    if first_B <= 0:
        raise InvalidGeometry(f"width must be positive, got {first_B:g}")
    B_eff = first_B - 2.0 * scenario.e
    if B_eff <= 0:
        raise InvalidGeometry(f"effective width B - 2e = {B_eff:g} m is not positive")
    card = (catalog or default_catalog()).get_method(EC7_CARD_ID)
    if drainage not in ("drained", "undrained"):
        raise SchemaError("$.drainage", "must be 'drained' or 'undrained'")
    if drainage == "undrained" and scenario.c_u_k is None:
        raise SchemaError("$.c_u_k", "scenario lacks undrained strength c_u_k")
    gamma_d = scenario.gamma_k / pf.gamma_gamma
    buoyant = gamma_d - GAMMA_WATER
    d_w, D_f = scenario.groundwater_depth, scenario.D_f
    if scenario.surcharge_model == "none":
        q_d = 0.0
    elif d_w >= D_f:
        q_d = gamma_d * D_f
    else:
        q_d = gamma_d * d_w + buoyant * (D_f - d_w)
    below = d_w - D_f  # depth of the water table below the base
    design = {
        "phi_prime_d": math.atan(math.tan(scenario.phi_prime_k) / pf.gamma_phi),
        "c_prime_d": scenario.c_prime_k / pf.gamma_c,
        "c_u_d": None if scenario.c_u_k is None else scenario.c_u_k / pf.gamma_cu,
        "gamma_d": gamma_d,
        "q_d": q_d,
    }
    fixed = {"phi_prime_d": design["phi_prime_d"], "c_prime_d": design["c_prime_d"],
             "c_u_d": 0.0 if scenario.c_u_k is None else design["c_u_d"],
             "q": q_d, "L": scenario.L}
    variant, staged, straight = stage(card, drainage, fixed, ("gamma", "B")) or (
        None, None, None)

    e, L, gamma_sw = scenario.e, scenario.L, scenario.gamma_sw
    G_k_col, gamma_R, gamma_G = scenario.G_k_col, pf.gamma_R, pf.gamma_G
    Q_d = pf.gamma_Q * scenario.Q_k
    isfinite = math.isfinite

    def trial(B: float) -> tuple[float, tuple]:
        B_eff = B - 2.0 * e
        if below <= 0:
            gamma_eff = buoyant
        elif below >= B_eff:
            gamma_eff = gamma_d
        else:
            gamma_eff = buoyant + (below / B_eff) * (gamma_d - buoyant)
        env, trace = None, None
        if (straight is not None and type(gamma_eff) is float and type(B_eff) is float
                and isfinite(gamma_eff) and isfinite(B_eff)):
            env = staged.copy()  # faster than a dict display
            env["gamma"] = gamma_eff
            env["B"] = B_eff
            try:
                for target, step in straight:
                    value = env[target] = step(env)
                    if not isfinite(value):
                        env = None
                        break
            except GeocardError:
                env = None
        if env is None:  # the reference raises the fault, or covers what the loop does not
            trace = evaluate_card(card, EvaluationRequest(
                card.id, drainage, {**fixed, "gamma": gamma_eff, "B": B_eff}))
            env = trace.env
        R_d = env["q_ult"] * B_eff * L / gamma_R
        V_d = gamma_G * (G_k_col + gamma_sw * B * D_f * L) + Q_d
        if not isfinite(V_d):  # float arithmetic overflows silently
            raise NonFiniteValue("V_d")
        if not isfinite(R_d):
            raise NonFiniteValue("R_d")
        utilization = V_d / R_d if R_d > 0 else math.inf
        return utilization, (B, B_eff, V_d, R_d, utilization, gamma_eff, env, trace)

    def result(state: tuple) -> UlsCheckResult:
        B, B_eff, V_d, R_d, utilization, gamma_eff, env, trace = state
        if trace is None:
            trace = EvaluationTrace(card, variant, env,
                                    {**fixed, "gamma": gamma_eff, "B": B_eff}, {},
                                    {"iterative_cycles": []})
        return UlsCheckResult(
            design_approach=design_approach,
            B=B,
            B_effective=B_eff,
            V_d=V_d,
            R_d=R_d,
            utilization=utilization,
            passed=utilization <= 1.0 + 1e-12,
            design_parameters={**design, "gamma_eff": gamma_eff},
            partial_factors=pf,
            trace=trace,
            drainage=drainage,
        )
    return trial, result


def check_footing_uls_ec7(scenario: FootingScenario, design_approach: str,
                          B: float, catalog: Catalog | None = None,
                          drainage: str = "drained") -> UlsCheckResult:
    """ULS bearing check at a trial width against the Annex D card.

    The card comes from ``catalog``, or from default_catalog() when None.
    A non-finite width raises NonFiniteValue naming ``B``, and a design
    action or resistance that overflows to infinity one naming ``V_d`` or
    ``R_d``.
    """
    trial, result = _uls_checker(scenario, design_approach, catalog, drainage, B)
    return result(trial(B)[1])


@dataclass(frozen=True)
class WidthDesignResult:
    design_approach: str
    B_req: float
    check: UlsCheckResult
    iterations: int

    def to_dict(self) -> dict:
        return self._body(self.check.trace.to_dict())

    def _body(self, trace, put=_same) -> dict:
        """The reply body around ``trace``, as ``UlsCheckResult._body``."""
        return {
            "design_approach": put(self.design_approach),
            "B_req": put(self.B_req),
            "iterations": put(self.iterations),
            "check": self.check._body(trace, put),
        }

    def _shape(self) -> tuple:
        return (WidthDesignResult, self.check._shape())

    def _written(self):
        return self.check.trace._written(self)


def design_footing_width_ec7(scenario: FootingScenario, design_approach: str,
                             tolerance: float = 1e-3,
                             catalog: Catalog | None = None,
                             drainage: str = "drained") -> WidthDesignResult:
    """Bisection on utilization(B) - 1 for the required footing width.

    Returns the passing end of the bracket, once its utilization lies in
    (1 - tolerance, 1] or no float lies between the ends, together with
    the check there. A trial width computes the utilization only; the
    check, with its trace, is built once, at the width returned, from that
    trial. A trial that fails raises what the check at its width raises,
    partial trace included. The bracket starts at [0.1 m, 20 m] and expands
    automatically (up to fixed limits) when utilization does not cross 1
    inside it.
    """
    if not 0.0 < tolerance < 1.0:  # also a NaN or a huge int
        raise SchemaError("$.tolerance", "must lie strictly between 0 and 1")
    min_b = max(2.0 * scenario.e + 1e-6, 1e-4)
    lo = max(0.1, min_b)
    trial, result = _uls_checker(scenario, design_approach, catalog, drainage, lo)

    hi = max(20.0, lo)
    (u_lo, _), (u_hi, at_hi) = trial(lo), trial(hi)
    expansions = 0
    while u_lo <= 1.0 and lo > min_b:
        lo = max(lo / 2.0, min_b)
        u_lo, _ = trial(lo)
        expansions += 1
    while u_hi >= 1.0 and expansions < 24:
        hi *= 2.0
        u_hi, at_hi = trial(hi)
        expansions += 1
    if u_lo <= 1.0 or u_hi >= 1.0:
        raise NoBracket(lo, hi)

    iterations = 0
    while u_hi <= 1.0 - tolerance:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        u_mid, at_mid = trial(mid)
        if u_mid > 1.0:
            lo = mid
        else:
            hi, u_hi, at_hi = mid, u_mid, at_mid
        iterations += 1
    return WidthDesignResult(design_approach=design_approach, B_req=hi,
                             check=result(at_hi), iterations=iterations)
