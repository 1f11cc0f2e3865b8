"""Eurocode 7 partial-factor machinery and the ULS footing workflow.

Covers the four EN 1997-1 Design Approach presets (Annex A partial
factors), characteristic-to-design parameter reduction, design action
assembly including foundation self-weight, the ULS bearing check against
the Annex D card, and the search for the required width on a grid. A
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

PASS_LIMIT = 1.0 + 1e-12  # the greatest utilization at which a check passes
RESOLUTION = 1e-4  # m: the default step of the width design's grid, 0.1 mm


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

    ``first_B`` is the first width the caller tries, the widest. Before it
    returns, the checker raises, in order: the Design Approach, the width
    (non-finite as NonFiniteValue naming ``B``, then ``B <= 0``, then
    ``B - 2e <= 0``), the card, the drainage and ``c_u_k``. No other width
    needs a check: the search tries none below its floor, the least width
    with B - 2e > 0. It then stages the card's variant with ``gamma`` and
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
            passed=utilization <= PASS_LIMIT,
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
    """The required width ``B_req``, the check there, and the certificate
    that it is the least on the grid: the check fails at the width one step
    below, ``B_below``, at ``utilization_below`` (> 1)."""

    design_approach: str
    B_req: float
    B_below: float
    utilization_below: float
    trials: int
    check: UlsCheckResult

    def to_dict(self) -> dict:
        return self._body(self.check.trace.to_dict())

    def _body(self, trace, put=_same) -> dict:
        """The reply body around ``trace``, as ``UlsCheckResult._body``."""
        below = self.utilization_below
        return {
            "design_approach": put(self.design_approach),
            "B_req": put(self.B_req),
            "B_below": put(self.B_below),
            "utilization_below": put(None if below == math.inf else below),
            "trials": put(self.trials),
            "check": self.check._body(trace, put),
        }

    def _shape(self) -> tuple:
        return (WidthDesignResult, self.check._shape())

    def _written(self):
        return self.check.trace._written(self)


def design_footing_width_ec7(scenario: FootingScenario, design_approach: str,
                             resolution: float = RESOLUTION,
                             catalog: Catalog | None = None,
                             drainage: str = "drained") -> WidthDesignResult:
    """``B_req``, the least width k/n m, n = 1 m / ``resolution``, with
    B' = B - 2e > 0 and B <= L (Annex D's B' is the smaller side) at which
    the ULS check passes; the check, with its trace, is built there alone.
    When the widest width fails, or the floor passes, NoBracket names
    [floor, L]. A trial that fails raises what the check at its width
    raises, partial trace included."""
    n = round(1.0 / resolution) if 1e-6 <= resolution <= 1.0 else 0  # also a NaN
    if not (n and math.isclose(n * resolution, 1.0)):
        raise SchemaError("$.resolution", "must divide 1 m into whole steps, from 1e-06 m to 1 m")
    L, e = scenario.L, scenario.e
    k_lo, k_hi = 2.0 * e * n, L * n
    if max(k_lo, k_hi) < math.inf:  # else the checker refuses the width
        k_lo, k_hi = math.floor(k_lo) + 1, round(k_hi)
        k_lo += k_lo / n - 2.0 * e <= 0  # the floor, the least width with B' > 0
        k_hi -= k_hi / n > L  # the widest width up to L
    trial, result = _uls_checker(scenario, design_approach, catalog, drainage,
                                 max(k_lo, k_hi) / n)
    found = k_lo < k_hi and _least_passing(trial, n, k_lo, k_hi)
    if not found:
        raise NoBracket(k_lo / n, L)
    k_lo, at_lo, k_hi, at_hi, trials = found
    return WidthDesignResult(design_approach=design_approach, B_req=k_hi / n,
                             B_below=k_lo / n, utilization_below=at_lo[4],
                             trials=trials, check=result(at_hi))


def _least_passing(trial: Callable[[float], tuple], n: int, k_lo: int, k_hi: int):
    """``(k_lo, at_lo, k_hi, at_hi, trials)``: adjacent grid indices of a
    failing and a passing width, their ``trial(k/n)`` states and the trials
    made; None when ``k_hi``, tried first, fails or ``k_lo`` passes. Every
    width of the bracket has B' > 0.

    Each step is the secant through the last two trials of h = ln u
    against t = ln B', where u is the utilization and B' the state's
    second field. R_d = q_ult B' L / gamma_R with q_ult a low-order
    polynomial in B', and V_d barely moves with B, so h is nearly linear
    in t near the root. Where that root is not strictly inside the
    bracket, the step is regula falsi between the bracket's ends; where
    neither is finite (u = 0 or u = inf has no logarithm), it bisects.
    The root's width B' + 2e is rounded down to the grid, to the widest
    width it says fails, and into the open bracket. (Rounding up finds the
    same k, but took 9 trials on more of the benchmark's seeded designs.)
    Once the trials reach what grid bisection of the first bracket needs,
    every later step bisects, so no search makes more than
    2 + 2 (k_hi - k_lo - 1).bit_length() trials."""
    log, exp, floor, nan = math.log, math.exp, math.floor, math.nan
    u_hi, at_hi = trial(k_hi / n)
    if u_hi > PASS_LIMIT:
        return None
    u_lo, at_lo = trial(k_lo / n)
    if u_lo <= PASS_LIMIT:
        return None
    shift = at_hi[0] - at_hi[1]  # 2e, as B - B'
    # (t, h) of the bracket's ends, and of the last two trials, the latest
    # last. h is NaN at u = 0, and inf at u = inf; a step through either
    # is not finite or not inside the bracket.
    t_hi, h_hi = log(at_hi[1]), log(u_hi) if u_hi > 0.0 else nan
    t_lo, h_lo = log(at_lo[1]), log(u_lo)
    t_0, h_0, t_1, h_1 = t_hi, h_hi, t_lo, h_lo
    trials, budget = 2, 2 + (k_hi - k_lo - 1).bit_length()
    while k_hi - k_lo > 1:
        t = None
        if trials < budget:
            t = t_1 - h_1 * (t_1 - t_0) / (h_1 - h_0) if h_1 != h_0 else nan
            if not t_lo < t < t_hi:  # regula falsi, clamped so that exp cannot overflow
                t = t_lo - h_lo * (t_hi - t_lo) / (h_hi - h_lo) if h_hi != h_lo else nan
                t = min(max(t, t_lo), t_hi) if math.isfinite(t) else None
        if t is None:
            k = (k_lo + k_hi) // 2
        else:
            k = floor((exp(t) + shift) * n)
            k = k_lo + 1 if k <= k_lo else k_hi - 1 if k >= k_hi else k
        u, at = trial(k / n)
        trials += 1
        t_0, h_0, t_1, h_1 = t_1, h_1, log(at[1]), log(u) if u > 0.0 else nan
        if u <= PASS_LIMIT:
            k_hi, at_hi, t_hi, h_hi = k, at, t_1, h_1
        else:
            k_lo, at_lo, t_lo, h_lo = k, at, t_1, h_1
    return k_lo, at_lo, k_hi, at_hi, trials
