"""Closed forms the benchmark checks geocard against.

Everything here is restated from the published formulas with ``math``
alone and imports nothing from geocard, so no check can pass by calling
the program it checks:

- bearing capacity factors and q_ult for Terzaghi (strip and square),
  Meyerhof, Vesic and EN 1997-1 Annex D (drained and undrained);
- the EN 1997-1 Annex A partial factor sets and the whole EC7 ULS chain:
  phi'_d = atan(tan phi'_k / gamma_phi), the groundwater rules for q_d and
  gamma_eff, B' = B - 2e, V_d, R_d and the utilization V_d / R_d;
- the fixed point of the benchmark's own cyclic card.
"""

from __future__ import annotations

import math

GAMMA_WATER = 9.81  # kN/m^3

# EN 1997-1 Annex A, combined per Design Approach:
# (gamma_G, gamma_Q, gamma_phi, gamma_c, gamma_cu, gamma_gamma, gamma_R)
PARTIAL_FACTORS = {
    "DA1-C1": (1.35, 1.5, 1.0, 1.0, 1.0, 1.0, 1.0),    # A1 + M1 + R1
    "DA1-C2": (1.0, 1.3, 1.25, 1.25, 1.4, 1.0, 1.0),   # A2 + M2 + R1
    "DA2": (1.35, 1.5, 1.0, 1.0, 1.0, 1.0, 1.4),       # A1 + M1 + R2
    "DA3": (1.35, 1.5, 1.25, 1.25, 1.4, 1.0, 1.0),     # A1 + M2 + R3
}

# Unit scales to the units the cards and scenarios are normalized to.
TO_CARD_UNIT = {
    "deg": math.pi / 180.0, "rad": 1.0,
    "kPa": 1.0, "MPa": 1000.0, "Pa": 0.001,
    "m": 1.0, "mm": 0.001,
    "kN/m^3": 1.0, "kN": 1.0,
}


def close(actual: float, expected: float, rel: float = 1e-9,
          abs_tol: float = 1e-9) -> bool:
    return (isinstance(actual, (int, float)) and math.isfinite(actual)
            and abs(actual - expected) <= max(rel * abs(expected), abs_tol))


# ------------------------------------------------------ bearing factors ----

def _nq(phi: float) -> float:
    return math.exp(math.pi * math.tan(phi)) * math.tan(math.pi / 4 + phi / 2) ** 2


def _nc(phi: float, nq: float, at_zero: float) -> float:
    return (nq - 1.0) / math.tan(phi) if phi > 0 else at_zero


def terzaghi_qult(phi, c, gamma, B, q, square=False) -> float:
    nq = _nq(phi)
    nc = _nc(phi, nq, 5.14)
    ng = 2.0 * (nq + 1.0) * math.tan(phi)
    if square:
        return 1.3 * c * nc + q * nq + 0.4 * gamma * B * ng
    return c * nc + q * nq + 0.5 * gamma * B * ng


def meyerhof_qult(phi, c, gamma, B, L, Df, q) -> float:
    nq = _nq(phi)
    nc = _nc(phi, nq, 5.14)
    ng = (nq - 1.0) * math.tan(1.4 * phi)
    kp = math.tan(math.pi / 4 + phi / 2) ** 2
    frictional = phi >= math.pi / 18
    sc = 1 + 0.2 * kp * B / L
    sq = 1 + 0.1 * kp * B / L if frictional else 1.0
    dc = 1 + 0.2 * math.sqrt(kp) * Df / B
    dq = 1 + 0.1 * math.sqrt(kp) * Df / B if frictional else 1.0
    return c * nc * sc * dc + q * nq * sq * dq + 0.5 * gamma * B * ng * sq * dq


def vesic_qult(phi, c, gamma, B, L, Df, q, beta=0.0) -> float:
    nq = _nq(phi)
    nc = _nc(phi, nq, 5.14)
    ng = 2.0 * (nq + 1.0) * math.tan(phi)
    sc = 1 + (B / L) * (nq / nc)
    sq = 1 + (B / L) * math.tan(phi)
    sg = 1 - 0.4 * B / L
    k = Df / B if Df <= B else math.atan(Df / B)
    dc = 1 + 0.4 * k
    dq = 1 + 2 * math.tan(phi) * (1 - math.sin(phi)) ** 2 * k
    ic = (1 - beta / (math.pi / 2)) ** 2
    ig = (1 - beta / phi) ** 2 if beta < phi else 0.0
    return c * nc * sc * dc * ic + q * nq * sq * dq * ic + 0.5 * gamma * B * ng * sg * ig


def ec7_drained_qult(phi, c, gamma, B, L, q) -> float:
    nq = _nq(phi)
    nc = _nc(phi, nq, math.pi + 2)
    ng = 2.0 * (nq - 1.0) * math.tan(phi)
    sq = 1 + (B / L) * math.sin(phi)
    sg = 1 - 0.3 * B / L
    sc = (sq * nq - 1) / (nq - 1) if phi > 0 else 1 + 0.2 * B / L
    return c * nc * sc + q * nq * sq + 0.5 * gamma * B * ng * sg


def ec7_undrained_qult(cu, B, L, q) -> float:
    return (math.pi + 2) * cu * (1 + 0.2 * B / L) + q


def variant_qult(card_id: str, variant_id: str, v: dict,
                 beta: float = 0.0) -> float:
    """q_ult of one bundled card variant from its card-keyed inputs."""
    if card_id == "BEARING_CAPACITY_TERZAGHI":
        return terzaghi_qult(v["phi_prime"], v["c_prime"], v["gamma"], v["B"],
                             v["q"], square=variant_id.endswith("square"))
    if card_id == "BEARING_CAPACITY_MEYERHOF":
        return meyerhof_qult(v["phi_prime"], v["c_prime"], v["gamma"], v["B"],
                             v["L"], v["D_f"], v["q"])
    if card_id == "BEARING_CAPACITY_VESIC":
        return vesic_qult(v["phi_prime"], v["c_prime"], v["gamma"], v["B"],
                          v["L"], v["D_f"], v["q"], beta)
    if variant_id == "undrained":
        return ec7_undrained_qult(v["c_u_d"], v["B"], v["L"], v["q"])
    return ec7_drained_qult(v["phi_prime_d"], v["c_prime_d"], v["gamma"],
                            v["B"], v["L"], v["q"])


def cyclic_fixed_point(p: float, a: float) -> float:
    """x of the coupled pair x = sqrt(p*y), y = a + x/2.

    Substituting y gives x^2 - (p/2) x - p a = 0, whose positive root is
    the fixed point.
    """
    return p / 4 + math.sqrt(p * p / 16 + p * a)


# ------------------------------------------------------------ EC7 chain ----

def ec7_uls(s: dict, da: str, B: float, drainage: str = "drained") -> dict:
    """V_d, R_d and utilization of scenario ``s`` (card units) at width B."""
    g_G, g_Q, g_phi, g_c, g_cu, g_gamma, g_R = PARTIAL_FACTORS[da]
    phi_d = math.atan(math.tan(s["phi_prime_k"]) / g_phi)
    c_d = s["c_prime_k"] / g_c
    gamma_d = s["gamma_k"] / g_gamma
    Df, dw, L = s["D_f"], s["groundwater_depth"], s["L"]

    if s["surcharge_model"] == "none":
        q_d = 0.0
    elif dw >= Df:
        q_d = gamma_d * Df
    else:
        q_d = gamma_d * dw + (gamma_d - GAMMA_WATER) * (Df - dw)

    B_eff = B - 2.0 * s["e"]
    below = dw - Df
    buoyant = gamma_d - GAMMA_WATER
    if below <= 0:
        gamma_eff = buoyant
    elif below >= B_eff:
        gamma_eff = gamma_d
    else:
        gamma_eff = buoyant + (below / B_eff) * (gamma_d - buoyant)

    if drainage == "undrained":
        q_ult = ec7_undrained_qult(s["c_u_k"] / g_cu, B_eff, L, q_d)
    else:
        q_ult = ec7_drained_qult(phi_d, c_d, gamma_eff, B_eff, L, q_d)
    R_d = q_ult * B_eff * L / g_R
    V_d = g_G * (s["G_k_col"] + s["gamma_sw"] * B * Df * L) + g_Q * s["Q_k"]
    return {"V_d": V_d, "R_d": R_d, "utilization": V_d / R_d,
            "phi_prime_d": phi_d, "q_d": q_d, "gamma_eff": gamma_eff,
            "B_effective": B_eff}


def required_width(s: dict, da: str, drainage: str = "drained") -> float:
    """The width at which the oracle's utilization is exactly 1.

    Utilization falls as the footing widens, so bisection between a width
    just above 2e and 100 m finds the one root to double precision.
    """
    lo, hi = 2.0 * s["e"] + 1e-6, 100.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ec7_uls(s, da, mid, drainage)["utilization"] > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    return 0.5 * (lo + hi)


def to_card_units(text_or_number) -> float:
    """Magnitude of a unit-tagged string (or bare number) in card units."""
    if not isinstance(text_or_number, str):
        return float(text_or_number)
    number, _, unit = text_or_number.partition(" ")
    return float(number) * TO_CARD_UNIT[unit] if unit else float(number)
