"""Independent scalar oracles for the regression suite.

These functions are written directly from the published formulas using
``math`` primitives. They deliberately share no code with the package:
the engine evaluates AST-parsed card equations, the oracles compute the
same physics by hand, and the tests assert the two paths agree.
"""

import math


# ------------------------------------------------------ bearing factors ----

# Below this friction angle (rad) N_c, EC7's s_c and the (N_q - 1) forms
# of N_gamma take their phi = 0 limits: (N_q - 1) cancels to rounding
# noise there, and under about 1e-16 rad N_q rounds below 1, which turns
# N_c and those N_gamma negative.
PHI_SEAM = 1e-8


def nq(phi: float) -> float:
    """N_q = e^(pi tan phi) tan^2(pi/4 + phi/2); phi in radians."""
    return math.exp(math.pi * math.tan(phi)) * math.tan(math.pi / 4 + phi / 2) ** 2


def terzaghi_factors(phi: float) -> tuple:
    """(N_q, N_c, N_gamma) for the Terzaghi card's equation set."""
    Nq = nq(phi)
    Nc = (Nq - 1.0) * (math.cos(phi) / math.sin(phi)) if phi > PHI_SEAM else 5.14
    Ng = 2.0 * (Nq + 1.0) * math.tan(phi)
    return Nq, Nc, Ng


def ec7_factors(phi: float) -> tuple:
    """(N_q, N_c, N_gamma) per EN 1997-1 Annex D (rough base)."""
    Nq = nq(phi)
    Nc = (Nq - 1.0) * (math.cos(phi) / math.sin(phi)) if phi > PHI_SEAM else math.pi + 2.0
    Ng = 2.0 * (Nq - 1.0) * math.tan(phi) if phi > PHI_SEAM else 0.0
    return Nq, Nc, Ng


def meyerhof_factors(phi: float) -> tuple:
    """(N_q, N_c, N_gamma) with Meyerhof's N_gamma = (N_q - 1) tan(1.4 phi)."""
    Nq = nq(phi)
    Nc = (Nq - 1.0) * (math.cos(phi) / math.sin(phi)) if phi > PHI_SEAM else 5.14
    Ng = (Nq - 1.0) * math.tan(1.4 * phi) if phi > PHI_SEAM else 0.0
    return Nq, Nc, Ng


# ---------------------------------------------------- correction factors ----

def meyerhof_corrections(phi: float, B: float, L: float, Df: float) -> dict:
    Kp = math.tan(math.pi / 4 + phi / 2) ** 2
    ten_deg = math.pi / 18
    sc = 1 + 0.2 * Kp * (B / L)
    sq = 1 + 0.1 * Kp * (B / L) if phi >= ten_deg else 1.0
    dc = 1 + 0.2 * math.sqrt(Kp) * (Df / B)
    dq = 1 + 0.1 * math.sqrt(Kp) * (Df / B) if phi >= ten_deg else 1.0
    return {"K_p": Kp, "s_c": sc, "s_q": sq, "s_gamma": sq,
            "d_c": dc, "d_q": dq, "d_gamma": dq}


def vesic_corrections(phi: float, B: float, L: float, Df: float,
                      beta: float = 0.0) -> dict:
    Nq, Nc, _ = terzaghi_factors(phi)
    sc = 1 + (B / L) * (Nq / Nc)
    sq = 1 + (B / L) * math.tan(phi)
    sg = 1 - 0.4 * (B / L)
    k = Df / B if Df <= B else math.atan(Df / B)
    dc = 1 + 0.4 * k
    dq = 1 + 2 * math.tan(phi) * (1 - math.sin(phi)) ** 2 * k
    ic = (1 - beta / (math.pi / 2)) ** 2
    ig = (1 - beta / phi) ** 2 if beta < phi else 0.0
    return {"s_c": sc, "s_q": sq, "s_gamma": sg, "k_depth": k,
            "d_c": dc, "d_q": dq, "d_gamma": 1.0,
            "i_c": ic, "i_q": ic, "i_gamma": ig}


def ec7_shape_factors(phi: float, B: float, L: float) -> dict:
    Nq = nq(phi)
    sq = 1 + (B / L) * math.sin(phi)
    sg = 1 - 0.3 * (B / L)
    sc = (sq * Nq - 1) / (Nq - 1) if phi > PHI_SEAM else 1 + (B / L) / (math.pi + 2)
    return {"s_q": sq, "s_gamma": sg, "s_c": sc}


# ------------------------------------------------------------ full q_ult ----

def terzaghi_qult_strip(phi, c, gamma, B, q) -> float:
    Nq, Nc, Ng = terzaghi_factors(phi)
    return c * Nc + q * Nq + 0.5 * gamma * B * Ng


def terzaghi_qult_square(phi, c, gamma, B, q) -> float:
    Nq, Nc, Ng = terzaghi_factors(phi)
    return 1.3 * c * Nc + q * Nq + 0.4 * gamma * B * Ng


def meyerhof_qult(phi, c, gamma, B, L, Df, q) -> float:
    Nq, Nc, Ng = meyerhof_factors(phi)
    f = meyerhof_corrections(phi, B, L, Df)
    return (c * Nc * f["s_c"] * f["d_c"]
            + q * Nq * f["s_q"] * f["d_q"]
            + 0.5 * gamma * B * Ng * f["s_gamma"] * f["d_gamma"])


def vesic_qult(phi, c, gamma, B, L, Df, q, beta=0.0) -> float:
    Nq, Nc, Ng = terzaghi_factors(phi)
    f = vesic_corrections(phi, B, L, Df, beta)
    return (c * Nc * f["s_c"] * f["d_c"] * f["i_c"]
            + q * Nq * f["s_q"] * f["d_q"] * f["i_q"]
            + 0.5 * gamma * B * Ng * f["s_gamma"] * f["d_gamma"] * f["i_gamma"])


def ec7_drained_qult(phi_d, c_d, gamma_eff, B, L, q) -> float:
    Nq, Nc, Ng = ec7_factors(phi_d)
    f = ec7_shape_factors(phi_d, B, L)
    return (c_d * Nc * f["s_c"] + q * Nq * f["s_q"]
            + 0.5 * gamma_eff * B * Ng * f["s_gamma"])


def ec7_undrained_qult(cu_d, B, L, q) -> float:
    return (math.pi + 2) * cu_d * (1 + 0.2 * (B / L)) + q


# ------------------------------------------------------------ EC7 design ----

def design_friction_angle(phi_k: float, gamma_phi: float) -> float:
    return math.atan(math.tan(phi_k) / gamma_phi)


def design_action(G_k, Q_k, gamma_sw, B, Df, L, gamma_G, gamma_Q) -> float:
    W = gamma_sw * B * Df * L
    return gamma_G * (G_k + W) + gamma_Q * Q_k
