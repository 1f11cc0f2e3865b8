"""Eurocode 7 partial-factor machinery and the ULS footing workflow.

Covers the four EN 1997-1 Design Approach presets (Annex A partial
factors), characteristic-to-design parameter reduction, design action
assembly including foundation self-weight, the ULS bearing check against
the Annex D card, and the bisection search for the required width. Every
trial width of the search is a full check, and the search returns the
check made at the width it settles on.
The check and the search read the Annex D card from the catalog they are
given, or from the process-wide ``catalog.default_catalog()`` when given
none, so the catalog is loaded and audited at most once per process.

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

from .cards import ABSENT, instance_of, load_record
from .catalog import Catalog, default_catalog
from .engine import (SPLICE, EvaluationRequest, EvaluationTrace, evaluate_card,
                     splice_json)
from .errors import (InvalidGeometry, NoBracket, NonConvergence,
                     NonFiniteValue, SchemaError, UnknownDesignApproach)
from .units import DATA_DIR, to_magnitude

GAMMA_WATER = 9.81  # kN/m^3

EC7_CARD_ID = "BEARING_CAPACITY_EUROCODE7"

DESIGN_APPROACHES = ("DA1-C1", "DA1-C2", "DA2", "DA3")

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
        return {
            "gamma_G": self.gamma_G,
            "gamma_Q": self.gamma_Q,
            "gamma_phi": self.gamma_phi,
            "gamma_c": self.gamma_c,
            "gamma_gamma": self.gamma_gamma,
            "gamma_R": self.gamma_R,
        }


# EN 1997-1 Annex A, combined per Design Approach:
#   A1: gamma_G 1.35, gamma_Q 1.5      A2: gamma_G 1.0, gamma_Q 1.3
#   M1: all material factors 1.0       M2: gamma_phi = gamma_c = 1.25, gamma_cu = 1.4
#   R1: 1.0   R2: 1.4   R3: 1.0
_PRESETS = {
    "DA1-C1": PartialFactorSet("DA1-C1", 1.35, 1.5, 1.0, 1.0, 1.0, 1.0, 1.0, "A1+M1+R1"),
    "DA1-C2": PartialFactorSet("DA1-C2", 1.0, 1.3, 1.25, 1.25, 1.4, 1.0, 1.0, "A2+M2+R1"),
    "DA2": PartialFactorSet("DA2", 1.35, 1.5, 1.0, 1.0, 1.0, 1.0, 1.4, "A1+M1+R2"),
    "DA3": PartialFactorSet("DA3", 1.35, 1.5, 1.25, 1.25, 1.4, 1.0, 1.0, "A1+M2+R3"),
}


def get_ec7_preset_partials(design_approach: str) -> PartialFactorSet:
    """Partial factor preset for DA1-C1, DA1-C2, DA2, or DA3."""
    try:
        return _PRESETS[design_approach]
    except KeyError:
        raise UnknownDesignApproach(design_approach) from None


@dataclass(frozen=True)
class SoilParameters:
    """Characteristic or design soil parameters (angles in radians)."""

    phi_prime: float
    c_prime: float
    gamma: float
    c_u: float | None = None


def derive_design_parameters(char: SoilParameters,
                             pf: PartialFactorSet) -> SoilParameters:
    """Reduce characteristic soil parameters to design values.

    phi'_d = atan(tan(phi'_k)/gamma_phi); cohesions and unit weight divide
    by their factors.
    """
    return SoilParameters(
        phi_prime=math.atan(math.tan(char.phi_prime) / pf.gamma_phi),
        c_prime=char.c_prime / pf.gamma_c,
        gamma=char.gamma / pf.gamma_gamma,
        c_u=None if char.c_u is None else char.c_u / pf.gamma_cu,
    )


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

    @property
    def characteristic_soil(self) -> SoilParameters:
        return SoilParameters(self.phi_prime_k, self.c_prime_k, self.gamma_k,
                              self.c_u_k)


def _quantity(unit_name: str):
    """The kind of a scenario quantity in the card unit ``unit_name``, named
    by its field (``path`` is ``$.<field>``); null is absent."""
    return lambda value, path: (
        ABSENT if value is None else to_magnitude(value, unit_name, path[2:]))


SCENARIO_FIELDS = {
    "L": (_quantity("m"), True), "D_f": (_quantity("m"), True),
    "phi_prime_k": (_quantity("radians"), True),
    "c_prime_k": (_quantity("kPa"), True),
    "gamma_k": (_quantity("kN/m^3"), True),
    "groundwater_depth": (_quantity("m"), True),
    "G_k_col": (_quantity("kN"), True), "Q_k": (_quantity("kN"), True),
    "gamma_sw": (_quantity("kN/m^3"), True),
    "e": (_quantity("m"), False), "c_u_k": (_quantity("kPa"), False),
    "surcharge_model": (lambda value, path: value, False),  # checked on creation
    "name": (instance_of(str), False), "jrc_verified": (instance_of(bool), False),
    "notes": (lambda value, path: ABSENT, False),  # for the reader only
}


def load_scenario(json_text: str) -> FootingScenario:
    """Parse a scenario file: unit-tagged strings for every physical field.

    A key that names no field is a SchemaError, so a misspelled optional
    field cannot fall back to its default unseen.
    """
    return FootingScenario(**load_record(json_text, SCENARIO_FIELDS, "scenario"))


def load_bundled_scenario(name: str = "jrc_a3") -> FootingScenario:
    return load_scenario(Path(bundled_scenario_path(name)).read_text("utf-8"))


def bundled_scenario_path(name: str = "jrc_a3") -> str:
    return str(DATA_DIR / "scenarios" / f"{name}.json")


# ------------------------------------------------------------ groundwater ----

def effective_overburden(scenario: FootingScenario, gamma_d: float) -> float:
    """Design effective overburden pressure at founding level (kPa)."""
    if scenario.surcharge_model == "none":
        return 0.0
    d_w = scenario.groundwater_depth
    depth = scenario.D_f
    if d_w >= depth:
        return gamma_d * depth
    return gamma_d * d_w + (gamma_d - GAMMA_WATER) * (depth - d_w)


def effective_unit_weight_below_base(scenario: FootingScenario,
                                     gamma_d: float, B: float) -> float:
    """Unit weight for the self-weight term, water-table interpolated."""
    below = scenario.groundwater_depth - scenario.D_f
    buoyant = gamma_d - GAMMA_WATER
    if below <= 0:
        return buoyant
    if below >= B:
        return gamma_d
    return buoyant + (below / B) * (gamma_d - buoyant)


# ------------------------------------------------------------- ULS check ----

# Not frozen: one is built per width-search trial, and a frozen __init__ is slow.
@dataclass
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

    def to_json(self) -> str:
        """``strict_json(self.to_dict())``, the trace written by its to_json."""
        return splice_json(self._body(SPLICE), self.trace.to_json())

    def _body(self, trace) -> dict:
        util = self.utilization if math.isfinite(self.utilization) else None
        return {
            "design_approach": self.design_approach,
            "drainage": self.drainage,
            "B": self.B,
            "B_effective": self.B_effective,
            "V_d": self.V_d,
            "R_d": self.R_d,
            "utilization": util,
            "pass": self.passed,
            "design_parameters": {k: self.design_parameters[k]
                                  for k in sorted(self.design_parameters)},
            "partial_factors": self.partial_factors.wire_dict(),
            "trace": trace,
        }


def compute_design_action(scenario: FootingScenario, pf: PartialFactorSet,
                          B: float) -> float:
    """V_d = gamma_G (G_k,col + W) + gamma_Q Q_k with W = gamma_sw B D_f L."""
    W = scenario.gamma_sw * B * scenario.D_f * scenario.L
    return pf.gamma_G * (scenario.G_k_col + W) + pf.gamma_Q * scenario.Q_k


def _uls_checker(scenario: FootingScenario, design_approach: str,
                 catalog: Catalog | None, drainage: str
                 ) -> Callable[[float], UlsCheckResult]:
    """``check(B)``: the ULS check at width ``B``, with the card's trace.

    The design soil values and overburden do not depend on the width, so
    they are derived once here; only an unknown Design Approach raises
    before a width is given, which is the check's first error anyway.
    """
    pf = get_ec7_preset_partials(design_approach)
    design = derive_design_parameters(scenario.characteristic_soil, pf)
    q_d = effective_overburden(scenario, design.gamma)

    def check(B: float) -> UlsCheckResult:
        if B <= 0:
            raise InvalidGeometry(f"width must be positive, got {B:g}")
        B_eff = B - 2.0 * scenario.e
        if B_eff <= 0:
            raise InvalidGeometry(
                f"effective width B - 2e = {B_eff:g} m is not positive")
        card = (catalog or default_catalog()).get_method(EC7_CARD_ID)
        gamma_eff = effective_unit_weight_below_base(scenario, design.gamma,
                                                     B_eff)

        if drainage not in ("drained", "undrained"):
            raise SchemaError("$.drainage", "must be 'drained' or 'undrained'")
        if drainage == "undrained" and design.c_u is None:
            raise SchemaError("$.c_u_k",
                              "scenario lacks undrained strength c_u_k")

        inputs = {
            "phi_prime_d": design.phi_prime,
            "c_prime_d": design.c_prime,
            "c_u_d": design.c_u if design.c_u is not None else 0.0,
            "gamma": gamma_eff,
            "q": q_d,
            "B": B_eff,
            "L": scenario.L,
        }
        trace = evaluate_card(card, EvaluationRequest(EC7_CARD_ID, drainage,
                                                      inputs))
        R_d = trace.outputs["q_ult"].magnitude * B_eff * scenario.L / pf.gamma_R
        V_d = compute_design_action(scenario, pf, B)
        for label, value in (("V_d", V_d), ("R_d", R_d)):
            if not math.isfinite(value):  # float arithmetic overflows silently
                raise NonFiniteValue(label)
        utilization = V_d / R_d if R_d > 0 else math.inf
        return UlsCheckResult(
            design_approach=design_approach,
            B=B,
            B_effective=B_eff,
            V_d=V_d,
            R_d=R_d,
            utilization=utilization,
            passed=utilization <= 1.0 + 1e-12,
            design_parameters={
                "phi_prime_d": design.phi_prime,
                "c_prime_d": design.c_prime,
                "c_u_d": design.c_u,
                "gamma_d": design.gamma,
                "q_d": q_d,
                "gamma_eff": gamma_eff,
            },
            partial_factors=pf,
            trace=trace,
            drainage=drainage,
        )
    return check


def check_footing_uls_ec7(scenario: FootingScenario, design_approach: str,
                          B: float, catalog: Catalog | None = None,
                          drainage: str = "drained") -> UlsCheckResult:
    """ULS bearing check at a trial width against the Annex D card.

    The card comes from ``catalog``, or from default_catalog() when None.
    A design action or resistance that overflows to infinity raises
    NonFiniteValue naming ``V_d`` or ``R_d``.
    """
    return _uls_checker(scenario, design_approach, catalog, drainage)(B)


@dataclass(frozen=True)
class WidthDesignResult:
    design_approach: str
    B_req: float
    check: UlsCheckResult
    iterations: int

    def to_dict(self) -> dict:
        return self._body(self.check.to_dict())

    def to_json(self) -> str:
        """``strict_json(self.to_dict())``, the check written by its to_json."""
        return splice_json(self._body(SPLICE), self.check.to_json())

    def _body(self, check) -> dict:
        return {
            "design_approach": self.design_approach,
            "B_req": self.B_req,
            "iterations": self.iterations,
            "check": check,
        }


def design_footing_width_ec7(scenario: FootingScenario, design_approach: str,
                             tolerance: float = 1e-3,
                             catalog: Catalog | None = None,
                             drainage: str = "drained") -> WidthDesignResult:
    """Bisection on utilization(B) - 1 for the required footing width.

    Returns the passing end of the bracket, once its utilization lies in
    (1 - tolerance, 1], together with the check made there. Each trial
    width is a full check, so a trial that fails raises its error with the
    partial trace. The bracket starts at [0.1 m, 20 m] and expands
    automatically (up to fixed limits) when utilization does not cross 1
    inside it.
    """
    if not 0.0 < tolerance < 1.0:  # also a NaN or a huge int
        raise SchemaError("$.tolerance", "must lie strictly between 0 and 1")
    min_b = max(2.0 * scenario.e + 1e-6, 1e-4)
    check = _uls_checker(scenario, design_approach, catalog, drainage)

    lo = max(0.1, min_b)
    hi = max(20.0, lo)
    at_lo, at_hi = check(lo), check(hi)
    expansions = 0
    while at_lo.utilization <= 1.0 and lo > min_b and expansions < 12:
        lo = max(lo / 2.0, min_b)
        at_lo = check(lo)
        expansions += 1
    while at_hi.utilization >= 1.0 and expansions < 24:
        hi *= 2.0
        at_hi = check(hi)
        expansions += 1
    if at_lo.utilization <= 1.0 or at_hi.utilization >= 1.0:
        raise NoBracket(lo, hi)

    iterations = 0
    while at_hi.utilization <= 1.0 - tolerance:
        if iterations == 200:
            raise NonConvergence("width bisection", iterations,
                                 "utilization gap", 1.0 - at_hi.utilization)
        mid = 0.5 * (lo + hi)
        at_mid = check(mid)
        if at_mid.utilization > 1.0:
            lo = mid
        else:
            hi, at_hi = mid, at_mid
        iterations += 1
    return WidthDesignResult(design_approach=design_approach, B_req=hi,
                             check=at_hi, iterations=iterations)
