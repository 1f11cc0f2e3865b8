"""Eurocode 7 workflow tests: partial factors, design values, the ULS
check, and the width search on the bundled validation scenario."""

import collections
import dataclasses
import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import HUGE_INT
from geocard.cards import load_card
from geocard.catalog import Catalog
from geocard.ec7 import (
    DESIGN_APPROACHES,
    EC7_CARD_ID,
    SURCHARGE_MODELS,
    FootingScenario,
    WidthDesignResult,
    UlsCheckResult,
    check_footing_uls_ec7,
    design_footing_width_ec7,
    get_ec7_preset_partials,
    bundled_scenario_path,
    load_bundled_scenario,
    load_scenario,
)
from geocard.catalog import default_catalog
from json.encoder import encode_basestring_ascii

from geocard.engine import EvaluationRequest, evaluate_card, strict_json, to_reply
from geocard.errors import (
    GeocardError,
    InvalidGeometry,
    MathDomain,
    MissingInput,
    MissingUnit,
    NoBracket,
    NonFiniteValue,
    SchemaError,
    UnexpectedInput,
    UnknownDesignApproach,
    UnknownMethod,
)

SCENARIO = load_bundled_scenario()


class TestPresetPartials:
    def test_da1_c2_exact_values(self):
        pf = get_ec7_preset_partials("DA1-C2")
        assert pf.wire_dict() == {
            "gamma_G": 1.0, "gamma_Q": 1.3, "gamma_phi": 1.25,
            "gamma_c": 1.25, "gamma_gamma": 1.0, "gamma_R": 1.0}
        assert pf.sets == "A2+M2+R1"

    def test_da2_is_a1_m1_r2(self):
        pf = get_ec7_preset_partials("DA2")
        assert (pf.gamma_G, pf.gamma_Q) == (1.35, 1.5)
        assert (pf.gamma_phi, pf.gamma_c, pf.gamma_gamma) == (1.0, 1.0, 1.0)
        assert pf.gamma_R == 1.4
        assert pf.sets == "A1+M1+R2"

    def test_da1_c1_and_da3(self):
        c1 = get_ec7_preset_partials("DA1-C1")
        assert (c1.gamma_G, c1.gamma_Q, c1.gamma_phi, c1.gamma_R) == \
            (1.35, 1.5, 1.0, 1.0)
        da3 = get_ec7_preset_partials("DA3")
        assert (da3.gamma_G, da3.gamma_Q, da3.gamma_phi, da3.gamma_R) == \
            (1.35, 1.5, 1.25, 1.0)

    # EN 1997-1 Annex A: Tables A.3 (actions), A.4 (soil) and A.5 (resistance).
    @pytest.mark.parametrize("da, factors, sets", [
        ("DA1-C1", (1.35, 1.5, 1.0, 1.0, 1.0, 1.0, 1.0), "A1+M1+R1"),
        ("DA1-C2", (1.0, 1.3, 1.25, 1.25, 1.4, 1.0, 1.0), "A2+M2+R1"),
        ("DA2", (1.35, 1.5, 1.0, 1.0, 1.0, 1.0, 1.4), "A1+M1+R2"),
        ("DA3", (1.35, 1.5, 1.25, 1.25, 1.4, 1.0, 1.0), "A1+M2+R3"),
    ])
    def test_every_factor_and_the_sets(self, da, factors, sets):
        pf = get_ec7_preset_partials(da)
        names = ("gamma_G", "gamma_Q", "gamma_phi", "gamma_c", "gamma_cu",
                 "gamma_gamma", "gamma_R")
        assert [getattr(pf, name).hex() for name in names] == \
            [factor.hex() for factor in factors]
        assert (pf.design_approach, pf.sets) == (da, sets)

    def test_unknown_design_approach(self):
        with pytest.raises(UnknownDesignApproach):
            get_ec7_preset_partials("DA9")


def design_parameters(design_approach, **soil) -> dict:
    """The design values a check shows for the bundled scenario with its
    characteristic soil values replaced by ``soil``."""
    scenario = dataclasses.replace(SCENARIO, **soil)
    return check_footing_uls_ec7(scenario, design_approach, 1.5).design_parameters


class TestDesignParameters:
    def test_friction_angle_tangent_rule(self):
        """38 deg through gamma_phi = 1.25 lands at 32.0 deg (two decimals)."""
        design = design_parameters("DA1-C2", phi_prime_k=math.radians(38.0),
                                   c_prime_k=0.0, gamma_k=18.5)
        assert math.degrees(design["phi_prime_d"]) == pytest.approx(32.01, abs=0.01)

    def test_identity_factoring(self):
        design = design_parameters("DA1-C1", phi_prime_k=math.radians(38.0),
                                   c_prime_k=5.0, gamma_k=18.5, c_u_k=60.0)
        assert design["phi_prime_d"] == math.radians(38.0)
        assert design["c_prime_d"] == 5.0
        assert design["gamma_d"] == 18.5
        assert design["c_u_d"] == 60.0

    def test_cohesion_direct_division(self):
        design = design_parameters("DA1-C2", phi_prime_k=math.radians(30.0),
                                   c_prime_k=10.0, gamma_k=20.0, c_u_k=70.0)
        assert design["c_prime_d"] == pytest.approx(8.0)
        assert design["c_u_d"] == pytest.approx(50.0)  # gamma_cu = 1.4


class TestDesignAction:
    def test_table_values_at_reference_widths(self):
        """V_d closes exactly at the published reference widths.

        gamma_sw = 18.75 kN/m^3 is back-derived:
        (V_d - gamma_G G_k - gamma_Q Q_k) / (gamma_G B D_f L) at DA1-C2,
        B = 1.50 gives 18.75, and the same value reproduces the DA2 and
        DA3 actions at their reference widths, a three-way consistency
        check across independent rows.
        """
        da12 = check_footing_uls_ec7(SCENARIO, "DA1-C2", 1.50).V_d
        da2 = check_footing_uls_ec7(SCENARIO, "DA2", 1.21).V_d
        da3 = check_footing_uls_ec7(SCENARIO, "DA3", 1.74).V_d
        assert da12 == pytest.approx(5661.00, abs=0.02)
        assert da2 == pytest.approx(7160.11, abs=0.02)
        assert da3 == pytest.approx(7590.75, abs=0.02)

    def test_gamma_sw_back_derivation(self):
        pf = get_ec7_preset_partials("DA1-C2")
        implied = (5661.00 - pf.gamma_G * SCENARIO.G_k_col
                   - pf.gamma_Q * SCENARIO.Q_k) / (
                       pf.gamma_G * 1.50 * SCENARIO.D_f * SCENARIO.L)
        assert implied == pytest.approx(18.75, abs=1e-4)

    def test_zero_loads(self):
        unloaded = dataclasses.replace(SCENARIO, G_k_col=0.0, Q_k=0.0,
                                       gamma_sw=0.0)
        assert check_footing_uls_ec7(unloaded, "DA1-C2", 1.5).V_d == 0.0

    def test_matches_oracle_formula(self):
        pf = get_ec7_preset_partials("DA3")
        got = check_footing_uls_ec7(SCENARIO, "DA3", 1.3).V_d
        want = oracles.design_action(SCENARIO.G_k_col, SCENARIO.Q_k,
                                     SCENARIO.gamma_sw, 1.3, SCENARIO.D_f,
                                     SCENARIO.L, pf.gamma_G, pf.gamma_Q)
        assert got == want


class TestGroundwaterModel:
    def _design(self, **overrides):
        """q'_d and gamma_eff of a DA1-C1 check at B = 2 m, where
        gamma_d = gamma_k = 20 kN/m^3 and B' = B."""
        base = dict(L=20.0, D_f=1.5, phi_prime_k=math.radians(35),
                    c_prime_k=0.0, gamma_k=20.0, groundwater_depth=2.5,
                    G_k_col=1000.0, Q_k=200.0, gamma_sw=25.0)
        base.update(overrides)
        design = check_footing_uls_ec7(FootingScenario(**base), "DA1-C1",
                                       2.0).design_parameters
        return design["q_d"], design["gamma_eff"]

    def test_water_below_influence_zone(self):
        q_d, gamma_eff = self._design(groundwater_depth=100.0)
        assert q_d == pytest.approx(30.0)
        assert gamma_eff == 20.0

    def test_water_at_base(self):
        q_d, gamma_eff = self._design(groundwater_depth=1.5)
        assert q_d == pytest.approx(30.0)
        assert gamma_eff == pytest.approx(20.0 - 9.81)

    def test_water_above_base(self):
        q_d, gamma_eff = self._design(groundwater_depth=0.5)
        # 0.5 m total + 1.0 m buoyant
        assert q_d == pytest.approx(20.0 * 0.5 + (20.0 - 9.81) * 1.0)
        assert gamma_eff == pytest.approx(10.19)

    def test_water_within_one_width_interpolates(self):
        _, gamma_eff = self._design(groundwater_depth=2.5)  # 1.0 m below base
        buoyant = 20.0 - 9.81
        assert gamma_eff == pytest.approx(buoyant + 0.5 * (20.0 - buoyant))

    def test_surcharge_none_model(self):
        q_d, _ = self._design(surcharge_model="none")
        assert q_d == 0.0


class TestUlsCheck:
    def test_check_at_published_width(self):
        result = check_footing_uls_ec7(SCENARIO, "DA1-C2", 1.497)
        assert result.V_d == pytest.approx(5659.20, abs=0.02)
        assert result.passed
        assert result.utilization == pytest.approx(1.0, abs=2e-3)
        assert math.degrees(
            result.design_parameters["phi_prime_d"]) == pytest.approx(32.01, abs=0.01)

    def test_trace_is_embedded_with_sources(self):
        result = check_footing_uls_ec7(SCENARIO, "DA2", 1.3)
        assert result.trace.steps
        assert any("EN 1997-1" in s.title for s in result.trace.card.sources)

    def test_utilization_definitional_identity(self):
        result = check_footing_uls_ec7(SCENARIO, "DA1-C2", 1.2)
        assert result.utilization == pytest.approx(result.V_d / result.R_d,
                                                   rel=1e-14)

    def test_degenerate_zero_resistance(self):
        """c' = 0, phi_d = 0, q = 0 drained: R_d = 0, utilization = inf, fail."""
        degenerate = FootingScenario(
            L=10.0, D_f=1.0, phi_prime_k=0.0, c_prime_k=0.0, gamma_k=9.81,
            groundwater_depth=0.0, G_k_col=100.0, Q_k=0.0, gamma_sw=0.0,
            surcharge_model="none")
        result = check_footing_uls_ec7(degenerate, "DA1-C2", 1.0)
        assert result.R_d == 0.0
        assert math.isinf(result.utilization)
        assert not result.passed

    def test_eccentricity_reduces_effective_width(self):
        import dataclasses
        eccentric = dataclasses.replace(SCENARIO, e=0.1)
        result = check_footing_uls_ec7(eccentric, "DA1-C2", 1.5)
        assert result.B_effective == pytest.approx(1.3)
        concentric = check_footing_uls_ec7(SCENARIO, "DA1-C2", 1.5)
        assert result.R_d < concentric.R_d
        # Self-weight still uses the full width.
        assert result.V_d == concentric.V_d

    def test_invalid_geometry(self):
        import dataclasses
        bad = dataclasses.replace(SCENARIO, e=0.8)
        with pytest.raises(InvalidGeometry):
            check_footing_uls_ec7(bad, "DA1-C2", 1.5)

    def test_undrained_check(self):
        import dataclasses
        clay = dataclasses.replace(SCENARIO, c_u_k=150.0,
                                   surcharge_model="effective_overburden")
        result = check_footing_uls_ec7(clay, "DA1-C2", 2.0,
                                       drainage="undrained")
        cu_d = 150.0 / 1.4
        q_d = SCENARIO.gamma_k * SCENARIO.D_f
        expected = oracles.ec7_undrained_qult(cu_d, 2.0, SCENARIO.L, q_d)
        assert result.trace.outputs["q_ult"].magnitude == pytest.approx(
            expected, rel=1e-12)

    def test_undrained_without_cu_raises(self):
        with pytest.raises(SchemaError):
            check_footing_uls_ec7(SCENARIO, "DA1-C2", 2.0, drainage="undrained")

    def test_error_order_for_several_bad_arguments(self):
        """Design Approach, then width, then card, then drainage."""
        with pytest.raises(UnknownDesignApproach):
            check_footing_uls_ec7(SCENARIO, "DA9", -1.0, catalog=Catalog(),
                                  drainage="bogus")
        with pytest.raises(InvalidGeometry):
            check_footing_uls_ec7(SCENARIO, "DA2", -1.0, catalog=Catalog(),
                                  drainage="bogus")
        with pytest.raises(GeocardError, match=EC7_CARD_ID):
            check_footing_uls_ec7(SCENARIO, "DA2", 1.5, catalog=Catalog(),
                                  drainage="bogus")
        with pytest.raises(SchemaError, match="drainage"):
            check_footing_uls_ec7(SCENARIO, "DA2", 1.5, drainage="bogus")

    @pytest.mark.parametrize("call, error, message", [
        (lambda: design_footing_width_ec7(SCENARIO, "DA9", tolerance=0.0),
         SchemaError, "$.tolerance: must lie strictly between 0 and 1"),
        (lambda: design_footing_width_ec7(
            dataclasses.replace(SCENARIO, e=1e10), "DA2", drainage="undrained"),
         InvalidGeometry, "effective width B - 2e = 0 m is not positive"),
        (lambda: design_footing_width_ec7(
            dataclasses.replace(SCENARIO, e=1e308), "DA2", drainage="bogus"),
         NonFiniteValue, "'B' is not a finite number"),
        (lambda: design_footing_width_ec7(SCENARIO, "DA2", catalog=Catalog(),
                                          drainage="bogus"),
         UnknownMethod, f"unknown method card: {EC7_CARD_ID!r}"),
        (lambda: check_footing_uls_ec7(
            dataclasses.replace(SCENARIO, e=1.0), "DA2", 1.5, drainage="undrained"),
         InvalidGeometry, "effective width B - 2e = -0.5 m is not positive"),
    ], ids=["tolerance", "effective-width", "non-finite-width", "card",
            "check-width-before-c_u_k"])
    def test_design_error_order_for_several_bad_arguments(self, call, error, message):
        """The design checks its tolerance, then its first width (with the
        check's order), before the card, the drainage and ``c_u_k``."""
        with pytest.raises(error) as raised:
            call()
        assert str(raised.value) == message

    @pytest.mark.parametrize("width", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("scenario", ["jrc_a3", "eccentric_pad"])
    def test_non_finite_width_is_named(self, scenario, width):
        """A NaN passes ``B <= 0``; every non-finite width names the width,
        before the positivity check, the card lookup and the drainage."""
        chosen = SCENARIO if scenario == "jrc_a3" else load_scenario(
            (Path(__file__).parent / "data/scenario_eccentric_pad.json").read_text("utf-8"))
        with pytest.raises(NonFiniteValue) as raised:
            check_footing_uls_ec7(chosen, "DA2", width, catalog=Catalog(),
                                  drainage="bogus")
        assert raised.value.payload() == {
            "error": "non_finite_value", "message": "'B' is not a finite number"}

    def test_r_d_matches_hand_assembly(self):
        """R_d = q_ult(B', design params) * B' * L / gamma_R, by oracle."""
        result = check_footing_uls_ec7(SCENARIO, "DA2", 1.21)
        pf = get_ec7_preset_partials("DA2")
        phi_d = oracles.design_friction_angle(SCENARIO.phi_prime_k, pf.gamma_phi)
        gamma_eff = SCENARIO.gamma_k - 9.81  # water at base in the scenario
        q_ult = oracles.ec7_drained_qult(phi_d, 0.0, gamma_eff, 1.21,
                                         SCENARIO.L, 0.0)
        assert result.R_d == pytest.approx(q_ult * 1.21 * SCENARIO.L / 1.4,
                                           rel=1e-12)


class TestWidthDesign:
    def test_converges_within_tolerance(self):
        result = design_footing_width_ec7(SCENARIO, "DA1-C2")
        assert abs(result.check.utilization - 1.0) < 1e-3
        assert result.check.passed or result.check.utilization < 1.0 + 1e-3

    def test_design_approach_ordering(self):
        """DA2 most economical, DA3 most conservative (published conclusion)."""
        widths = {da: design_footing_width_ec7(SCENARIO, da).B_req
                  for da in ("DA1-C2", "DA2", "DA3")}
        assert widths["DA2"] < widths["DA1-C2"] < widths["DA3"]

    def test_da1_governed_by_c2(self):
        b_c1 = design_footing_width_ec7(SCENARIO, "DA1-C1").B_req
        b_c2 = design_footing_width_ec7(SCENARIO, "DA1-C2").B_req
        assert max(b_c1, b_c2) == b_c2

    def test_utilization_monotone_over_bracket(self):
        """Sampled utilization is strictly decreasing, so bisection is safe."""
        previous = math.inf
        for i in range(50):
            width = 0.4 + i * (4.0 - 0.4) / 49
            util = check_footing_uls_ec7(SCENARIO, "DA1-C2", width).utilization
            assert util < previous
            previous = util

    def test_no_bracket(self):
        """Zero action means utilization never crosses 1: NoBracket."""
        import dataclasses
        unloaded = dataclasses.replace(SCENARIO, G_k_col=0.0, Q_k=0.0,
                                       gamma_sw=0.0)
        with pytest.raises(NoBracket) as err:
            design_footing_width_ec7(unloaded, "DA1-C1")
        assert str(err.value) == ("utilization does not cross 1.0 for widths in "
                                  "[0.0001 m, 20 m]")

    def test_lower_bracket_stops_at_the_floor(self):
        """A design needing about 0.14 mm: the tenth halving from 0.1 m is
        held at the 1e-4 m floor, where the bisection starts."""
        light = dataclasses.replace(SCENARIO, G_k_col=1e-4, Q_k=0.0, gamma_sw=0.0)
        assert check_footing_uls_ec7(light, "DA1-C1", 1e-4).utilization > 1.0
        result = design_footing_width_ec7(light, "DA1-C1")
        assert (result.B_req, result.iterations) == (0.00013926436342298986, 28)

    @pytest.mark.parametrize("phi", [1e-17, 1e-300, 1e-9, 5e-324])
    def test_tiny_friction_angle_designs_as_zero(self, phi):
        """Below 1e-16 rad N_q rounds under 1; the N_c and s_c seams at
        1e-8 rad keep the design at its phi = 0 width."""
        cohesive = dataclasses.replace(SCENARIO, c_prime_k=50.0, phi_prime_k=0.0)
        at_zero = design_footing_width_ec7(cohesive, "DA1-C1")
        tiny = design_footing_width_ec7(
            dataclasses.replace(cohesive, phi_prime_k=phi), "DA1-C1")
        assert at_zero.B_req == pytest.approx(1.3000244, abs=1e-7)
        assert (tiny.B_req, tiny.iterations) == (at_zero.B_req, at_zero.iterations)


class TestWidthDesignPassesOwnCheck:
    @pytest.mark.parametrize("da", ["DA1-C1", "DA1-C2", "DA2", "DA3"])
    def test_required_width_passes_within_tolerance(self, da):
        result = design_footing_width_ec7(SCENARIO, da, tolerance=1e-3)
        assert result.check.passed
        assert 1.0 - 1e-3 < result.check.utilization <= 1.0
        assert result.check.B == result.B_req

    @pytest.mark.parametrize("tolerance", [0.0, -1e-3, math.nan, math.inf,
                                           1.0, 5.0])
    def test_bad_tolerance_rejected(self, tolerance):
        with pytest.raises(SchemaError) as err:
            design_footing_width_ec7(SCENARIO, "DA2", tolerance=tolerance)
        assert str(err.value) == "$.tolerance: must lie strictly between 0 and 1"

    def test_unreachable_tolerance_returns_the_last_passing_float(self):
        # 1 - 1e-300 rounds to 1.0, which no passing width exceeds: the
        # search stops once no float lies between the ends of its bracket.
        result = design_footing_width_ec7(SCENARIO, "DA2", tolerance=1e-300)
        assert result.check.passed and result.check.utilization <= 1.0
        below = check_footing_uls_ec7(SCENARIO, "DA2", math.nextafter(result.B_req, 0))
        assert below.utilization > 1.0

    def test_pass_allows_a_utilization_within_1e_12_of_one(self):
        B_req = design_footing_width_ec7(SCENARIO, "DA1-C1", tolerance=1e-300).B_req
        below = check_footing_uls_ec7(SCENARIO, "DA1-C1", math.nextafter(B_req, 0))
        assert (below.utilization, below.passed) == (1.0000000000000002, True)
        short = check_footing_uls_ec7(SCENARIO, "DA1-C1", B_req * (1 - 1e-12))
        assert (short.utilization, short.passed) == (1.0000000000018683, False)


# Finite scenario values whose design action or resistance overflows.
OVERFLOWING = [
    pytest.param({"gamma_k": "1e306 kN/m^3"}, "DA1-C1", "R_d", id="R_d"),
    pytest.param({"G_k_col": "1.7e308 kN"}, "DA2", "V_d", id="V_d"),
]


def overflowing_scenario(changes: dict) -> str:
    raw = json.loads(Path(bundled_scenario_path()).read_text())
    return json.dumps({**raw, **changes})


class TestOverflowingCheck:
    @pytest.mark.parametrize("changes, da, key", OVERFLOWING)
    def test_check_raises_non_finite(self, changes, da, key):
        scenario = load_scenario(overflowing_scenario(changes))
        with pytest.raises(NonFiniteValue) as err:
            check_footing_uls_ec7(scenario, da, 1.5)
        assert str(err.value) == f"{key!r} is not a finite number"

    def test_design_raises_non_finite_not_no_bracket(self):
        scenario = load_scenario(overflowing_scenario({"G_k_col": "1.7e308 kN"}))
        with pytest.raises(NonFiniteValue) as err:
            design_footing_width_ec7(scenario, "DA2")
        assert str(err.value) == "'V_d' is not a finite number"


class TestScenarioNonFinite:
    @pytest.mark.parametrize("value, error, message", [
        ('NaN', MissingUnit, "value(s) need a unit tag: Q_k"),
        ('Infinity', MissingUnit, "value(s) need a unit tag: Q_k"),
        ('"1e400 kN"', NonFiniteValue, "'Q_k' is not a finite number"),
        ('1e400', MissingUnit, "value(s) need a unit tag: Q_k"),
    ], ids=['NaN', 'Infinity', '"1e400 kN"', '1e400'])
    def test_rejected(self, value, error, message):
        """A JSON number names no unit, finite or not; tagged text that
        overflows is not finite."""
        text = (Path(bundled_scenario_path()).read_text()
                .replace('"Q_k": "967.10 kN"', f'"Q_k": {value}'))
        assert '"Q_k": "967.10 kN"' not in text
        with pytest.raises(error) as err:
            load_scenario(text)
        assert str(err.value) == message

    def test_over_long_integer_is_schema_error(self):
        text = (Path(bundled_scenario_path()).read_text()
                .replace('"Q_k": "967.10 kN"', f'"Q_k": {HUGE_INT}'))
        with pytest.raises(SchemaError) as err:
            load_scenario(text)
        with pytest.raises(ValueError) as cause:
            json.loads(text)
        assert str(err.value) == f"$: invalid JSON: {cause.value}"


# Physically impossible scenario values. Before they were refused, "100 deg"
# gave a design, because atan(tan 100 deg) reads the angle as -80 deg.
IMPOSSIBLE_FIELDS = [
    ("phi_prime_k", "100 deg"), ("phi_prime_k", "90 deg"),
    ("phi_prime_k", "-5 deg"), ("c_prime_k", "-5 kPa"), ("c_u_k", "-5 kPa"),
    ("gamma_k", "-18 kN/m^3"), ("gamma_k", "0 kN/m^3"),
    ("gamma_sw", "-25 kN/m^3"), ("G_k_col", "-500 kN"), ("Q_k", "-1 kN"),
    ("groundwater_depth", "-3 m"),
]


class TestScenarioFile:
    def test_bundled_scenario_fields(self):
        assert SCENARIO.L == 21.4
        assert SCENARIO.D_f == 1.5
        assert math.degrees(SCENARIO.phi_prime_k) == pytest.approx(38.0)
        assert SCENARIO.G_k_col == 3500.96
        assert SCENARIO.Q_k == 967.10
        assert SCENARIO.gamma_sw == 18.75
        assert SCENARIO.jrc_verified is False

    def test_unit_tagged_round_trip(self):
        text = json.dumps({
            "L": "21400 mm", "D_f": "1.5 m", "phi_prime_k": "38 deg",
            "c_prime_k": "0 kPa", "gamma_k": "18.5 kN/m^3",
            "groundwater_depth": "1.5 m", "G_k_col": "3500.96 kN",
            "Q_k": "967.10 kN", "gamma_sw": "18.75 kN/m^3"})
        scn = load_scenario(text)
        assert scn.L == pytest.approx(21.4)

    def test_missing_field_rejected(self):
        with pytest.raises(SchemaError):
            load_scenario('{"L": "1 m"}')

    @pytest.mark.parametrize("text", ["[]", '"L"', "3", "null"])
    def test_non_object_rejected_at_root(self, text):
        with pytest.raises(SchemaError) as err:
            load_scenario(text)
        assert str(err.value) == "$: scenario must be a JSON object"

    def test_metadata_types_checked(self):
        raw = json.loads(Path(bundled_scenario_path()).read_text())
        for key, value, expected in (("jrc_verified", "false", "bool, got str"),
                                     ("jrc_verified", 1, "bool, got int"),
                                     ("name", [1, 2], "str, got list"),
                                     ("name", None, "str, got NoneType")):
            with pytest.raises(SchemaError) as err:
                load_scenario(json.dumps(dict(raw, **{key: value})))
            assert str(err.value) == f"$.{key}: expected {expected}"
        scn = load_scenario(json.dumps(dict(raw, name="A3", jrc_verified=True)))
        assert (scn.name, scn.jrc_verified) == ("A3", True)

    @pytest.mark.parametrize("key, value", [("ecc", "0.3 m"), ("B", "1.5 m"),
                                            ("phi_prime", "38 deg"),
                                            ("comment", "x")])
    def test_unknown_field_rejected(self, key, value):
        raw = json.loads(Path(bundled_scenario_path()).read_text())
        with pytest.raises(SchemaError) as err:
            load_scenario(json.dumps(dict(raw, **{key: value})))
        assert str(err.value) == f"$.{key}: unknown field"

    def test_misspelled_eccentricity_does_not_pass_silently(self):
        """A stray "ecc" once fell back to e = 0 and passed at 0.675; the
        intended "e" fails at 1.859."""
        raw = json.loads(Path(bundled_scenario_path()).read_text())
        with pytest.raises(SchemaError):
            load_scenario(json.dumps(dict(raw, ecc="0.3 m")))
        intended = load_scenario(json.dumps(dict(raw, e="0.3 m")))
        result = check_footing_uls_ec7(intended, "DA2", 1.5)
        assert result.utilization == pytest.approx(1.859, abs=1e-3)
        assert not result.passed

    def test_every_known_field_is_accepted(self):
        raw = json.loads(Path(bundled_scenario_path()).read_text())
        full = dict(raw, c_u_k="50 kPa", name="A3", jrc_verified=True,
                    notes=["kept for the reader only"])
        assert load_scenario(json.dumps(full)).c_u_k == 50.0

    @pytest.mark.parametrize("key, value", IMPOSSIBLE_FIELDS)
    def test_physically_impossible_field_rejected(self, key, value):
        raw = json.loads(Path(bundled_scenario_path()).read_text())
        with pytest.raises(SchemaError) as err:
            load_scenario(json.dumps(dict(raw, **{key: value})))
        rule = {"phi_prime_k": "must lie in [0, 90) degrees",
                "gamma_k": "must be positive"}.get(key, "must be non-negative")
        assert str(err.value) == f"$.{key}: {rule}"

    @pytest.mark.parametrize("key, value", [
        ("phi_prime_k", "0 deg"), ("phi_prime_k", "89.9 deg"),
        ("c_prime_k", "0 kPa"), ("c_u_k", "0 kPa"), ("gamma_sw", "0 kN/m^3"),
        ("G_k_col", "0 kN"), ("Q_k", "0 kN"), ("groundwater_depth", "0 m")])
    def test_bounds_of_the_possible_accepted(self, key, value):
        raw = json.loads(Path(bundled_scenario_path()).read_text())
        load_scenario(json.dumps(dict(raw, **{key: value})))

    def test_wrong_unit_dimension_rejected(self):
        from geocard.errors import DimensionMismatch
        text = json.dumps({
            "L": "21.4 kPa", "D_f": "1.5 m", "phi_prime_k": "38 deg",
            "c_prime_k": "0 kPa", "gamma_k": "18.5 kN/m^3",
            "groundwater_depth": "1.5 m", "G_k_col": "3500.96 kN",
            "Q_k": "967.10 kN", "gamma_sw": "18.75 kN/m^3"})
        with pytest.raises(DimensionMismatch):
            load_scenario(text)


class TestDefaultCatalog:
    def test_catalog_loaded_once_for_calls_without_one(self, monkeypatch):
        import geocard.catalog

        calls = []
        load = geocard.catalog.load_catalog

        def counting_load(*args, **kwargs):
            calls.append(args)
            return load(*args, **kwargs)

        monkeypatch.setattr(geocard.catalog, "_DEFAULT", None)
        monkeypatch.setattr(geocard.catalog, "load_catalog", counting_load)
        design_footing_width_ec7(SCENARIO, "DA1-C1")
        design_footing_width_ec7(SCENARIO, "DA2")
        check_footing_uls_ec7(SCENARIO, "DA3", 1.5)
        assert len(calls) == 1


# ------------------------------------------------- width search oracle ----

_DesignSoil = collections.namedtuple("_DesignSoil", "phi_prime c_prime gamma c_u")


def _effective_overburden(scenario, gamma_d):
    """Design effective overburden pressure at founding level, as first
    written."""
    if scenario.surcharge_model == "none":
        return 0.0
    d_w = scenario.groundwater_depth
    depth = scenario.D_f
    if d_w >= depth:
        return gamma_d * depth
    return gamma_d * d_w + (gamma_d - 9.81) * (depth - d_w)


def _unit_weight_below_base(scenario, gamma_d, B):
    """The water-table interpolated unit weight below the base, as first
    written."""
    below = scenario.groundwater_depth - scenario.D_f
    buoyant = gamma_d - 9.81
    if below <= 0:
        return buoyant
    if below >= B:
        return gamma_d
    return buoyant + (below / B) * (gamma_d - buoyant)


def _reference_check(scenario, design_approach, B, catalog=None,
                     drainage="drained"):
    """The ULS check as first written: one full evaluate_card of the
    Annex D card, with every input given, at each width."""
    pf = get_ec7_preset_partials(design_approach)
    design = _DesignSoil(  # the reduction to design values, as first written
        phi_prime=math.atan(math.tan(scenario.phi_prime_k) / pf.gamma_phi),
        c_prime=scenario.c_prime_k / pf.gamma_c,
        gamma=scenario.gamma_k / pf.gamma_gamma,
        c_u=None if scenario.c_u_k is None else scenario.c_u_k / pf.gamma_cu)
    q_d = _effective_overburden(scenario, design.gamma)
    if B <= 0:
        raise InvalidGeometry(f"width must be positive, got {B:g}")
    B_eff = B - 2.0 * scenario.e
    if B_eff <= 0:
        raise InvalidGeometry(
            f"effective width B - 2e = {B_eff:g} m is not positive")
    card = (catalog or default_catalog()).get_method(EC7_CARD_ID)
    gamma_eff = _unit_weight_below_base(scenario, design.gamma, B_eff)
    if drainage not in ("drained", "undrained"):
        raise SchemaError("$.drainage", "must be 'drained' or 'undrained'")
    if drainage == "undrained" and design.c_u is None:
        raise SchemaError("$.c_u_k", "scenario lacks undrained strength c_u_k")
    inputs = {
        "phi_prime_d": design.phi_prime,
        "c_prime_d": design.c_prime,
        "c_u_d": design.c_u if design.c_u is not None else 0.0,
        "gamma": gamma_eff,
        "q": q_d,
        "B": B_eff,
        "L": scenario.L,
    }
    trace = evaluate_card(card, EvaluationRequest(EC7_CARD_ID, drainage, inputs))
    R_d = trace.outputs["q_ult"].magnitude * B_eff * scenario.L / pf.gamma_R
    V_d = oracles.design_action(scenario.G_k_col, scenario.Q_k,
                                scenario.gamma_sw, B, scenario.D_f,
                                scenario.L, pf.gamma_G, pf.gamma_Q)
    for label, value in (("V_d", V_d), ("R_d", R_d)):
        if not math.isfinite(value):
            raise NonFiniteValue(label)
    utilization = V_d / R_d if R_d > 0 else math.inf
    return UlsCheckResult(
        design_approach=design_approach, B=B, B_effective=B_eff, V_d=V_d,
        R_d=R_d, utilization=utilization, passed=utilization <= 1.0 + 1e-12,
        design_parameters={
            "phi_prime_d": design.phi_prime, "c_prime_d": design.c_prime,
            "c_u_d": design.c_u, "gamma_d": design.gamma, "q_d": q_d,
            "gamma_eff": gamma_eff,
        },
        partial_factors=pf, trace=trace, drainage=drainage)


def _traced_search(scenario, design_approach, tolerance=1e-3, catalog=None,
                   drainage="drained"):
    """The width search as first written: every trial is a reference check."""
    return _bisection(scenario, design_approach, tolerance, lambda width: _reference_check(
        scenario, design_approach, width, catalog=catalog, drainage=drainage))


def _bisection(scenario, design_approach, tolerance, check):
    """The bracket-and-bisect loop of the width search, with every trial
    width a full ``check(width)``."""
    if not 0.0 < tolerance < 1.0:
        raise SchemaError("$.tolerance", "must lie strictly between 0 and 1")
    min_b = max(2.0 * scenario.e + 1e-6, 1e-4)

    lo = max(0.1, min_b)
    hi = max(20.0, lo)
    at_lo, at_hi = check(lo), check(hi)
    expansions = 0
    while at_lo.utilization <= 1.0 and lo > min_b:
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
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        at_mid = check(mid)
        if at_mid.utilization > 1.0:
            lo = mid
        else:
            hi, at_hi = mid, at_mid
        iterations += 1
    return WidthDesignResult(design_approach=design_approach, B_req=hi,
                             check=at_hi, iterations=iterations)


def _error_record(exc):
    """Everything an error carries to a client."""
    trace = exc.partial_trace
    return (type(exc), str(exc), exc.failed_step,
            None if trace is None else trace.to_json())


def _design_reply(search):
    """The strict JSON of a design or check, or the error's record."""
    try:
        return strict_json(search().to_dict())
    except GeocardError as exc:
        return _error_record(exc)


_SCENARIOS = st.builds(
    FootingScenario,
    L=st.floats(2.0, 30.0),
    D_f=st.floats(0.3, 3.0),
    phi_prime_k=st.one_of(st.just(0.0), st.floats(0.0, 0.8)),
    c_prime_k=st.one_of(st.just(0.0), st.floats(0.0, 40.0)),
    gamma_k=st.floats(12.0, 22.0),
    groundwater_depth=st.floats(0.0, 12.0),
    G_k_col=st.floats(0.0, 20000.0),
    Q_k=st.floats(0.0, 6000.0),
    gamma_sw=st.floats(0.0, 25.0),
    e=st.one_of(st.just(0.0), st.floats(0.0, 0.6)),
    c_u_k=st.one_of(st.none(), st.floats(5.0, 200.0), st.floats(20.0, 80.0)),
    surcharge_model=st.sampled_from(SURCHARGE_MODELS),
)


def _jrc_a3(**changes) -> FootingScenario:
    """The bundled scenario with some of its fields' texts replaced."""
    return load_scenario(overflowing_scenario(changes))


# q_ult overflows at the bracket's upper end, 20 m: a fault in a step that
# a trial evaluates after the staged ones.
_HEAVY_SOIL = _jrc_a3(gamma_k="1e306 kN/m^3")


class TestWidthSearchMatchesTracedSearch:
    @settings(max_examples=60, deadline=None)
    @given(_SCENARIOS)
    @example(_HEAVY_SOIL)
    def test_same_reply_or_same_error(self, scenario):
        for da in DESIGN_APPROACHES:
            for drainage in ("drained", "undrained"):
                got = _design_reply(lambda: design_footing_width_ec7(
                    scenario, da, drainage=drainage))
                expected = _design_reply(lambda: _traced_search(
                    scenario, da, drainage=drainage))
                assert got == expected, (da, drainage)

    @settings(max_examples=40, deadline=None)
    @given(_SCENARIOS, st.floats(-1.0, 40.0))
    @example(_HEAVY_SOIL, 20.0)
    def test_check_matches_reference_check(self, scenario, width):
        for da in DESIGN_APPROACHES:
            for drainage in ("drained", "undrained"):
                got = _design_reply(lambda: check_footing_uls_ec7(
                    scenario, da, width, drainage=drainage))
                expected = _design_reply(lambda: _reference_check(
                    scenario, da, width, drainage=drainage))
                assert got == expected, (da, drainage)

    @pytest.mark.parametrize("da", DESIGN_APPROACHES)
    def test_bundled_scenario(self, da):
        assert _design_reply(lambda: design_footing_width_ec7(SCENARIO, da)) == \
            _design_reply(lambda: _traced_search(SCENARIO, da))


def _same_json(result) -> dict:
    """The reply, written from its body's template, is the JSON string
    literal of the reference writer's text. Returns the decoded body."""
    text = strict_json(result.to_dict())
    assert to_reply(result) == encode_basestring_ascii(text)
    return json.loads(text)


_NO_C_U = FootingScenario(L=4.0, D_f=1.0, phi_prime_k=0.5, c_prime_k=5.0, gamma_k=19.0,
                          groundwater_depth=1.6, G_k_col=900.0, Q_k=350.0,
                          gamma_sw=24.0, e=0.15)
# Buoyant weight 5 - 9.81 < 0 with the water table at the surface: q_ult,
# and so R_d, can be negative, and the utilization is written as null.
_SUBMERGED_LIGHT = FootingScenario(L=4.0, D_f=1.0, phi_prime_k=0.17, c_prime_k=0.0,
                                   gamma_k=5.0, groundwater_depth=0.0, G_k_col=100.0,
                                   Q_k=10.0, gamma_sw=24.0)


# Text that holds a quote, a backslash, a newline and non-ASCII characters.
_AWKWARD_TEXT = st.builds(lambda a, b: a + '"\\\n\u00e9\u6f22' + b,
                          st.text(max_size=6), st.text(max_size=6))
_REAL_CHECK = check_footing_uls_ec7(SCENARIO, "DA2", 2.0)
_REAL_DESIGN = design_footing_width_ec7(SCENARIO, "DA3")


def _search_outcome(search):
    """The design's bytes and halvings, or the error as a client reads it."""
    try:
        result = search()
    except GeocardError as exc:
        return type(exc), str(exc), exc.payload()
    return to_reply(result), result.iterations


class TestWidthSearchMatchesCheckedSearch:
    """The width search against the bracket and bisection made of public
    checks, one ``check_footing_uls_ec7`` per trial width."""

    @settings(max_examples=80, deadline=None)
    @given(_SCENARIOS, st.sampled_from(DESIGN_APPROACHES),
           st.sampled_from(("drained", "undrained")), st.sampled_from((1e-2, 1e-3, 1e-6)))
    @example(_jrc_a3(L="1.5 m"), "DA2", "drained", 1e-3)  # NoBracket
    @example(_jrc_a3(G_k_col="1.5e308 kN"), "DA2", "drained", 1e-3)  # V_d overflows
    @example(_jrc_a3(phi_prime_k="89.99 deg"), "DA3", "drained", 1e-6)  # N_q overflows
    @example(SCENARIO, "DA1-C1", "undrained", 1e-2)  # no c_u_k
    @example(SCENARIO, "DA1-C2", "drained", 1e-6)
    @example(_NO_C_U, "DA3", "drained", 1e-2)
    @example(SCENARIO, "DA2", "drained", 1e-300)  # no float between the ends
    @example(_HEAVY_SOIL, "DA2", "drained", 1e-3)  # q_ult overflows
    def test_same_design_or_same_error(self, scenario, da, drainage, tolerance):
        expected = _search_outcome(lambda: _bisection(
            scenario, da, tolerance, lambda width: check_footing_uls_ec7(
                scenario, da, width, drainage=drainage)))
        assert _search_outcome(lambda: design_footing_width_ec7(
            scenario, da, tolerance, drainage=drainage)) == expected

    @pytest.mark.parametrize("changes, da, drainage, kind, message", [
        ({"L": "1.5 m"}, "DA2", "drained", NoBracket, "utilization does not cross 1.0"),
        ({"G_k_col": "1.5e308 kN"}, "DA2", "drained", NonFiniteValue, "'V_d'"),
        ({"phi_prime_k": "89.99 deg"}, "DA3", "drained", MathDomain, "overflow in exp"),
        ({}, "DA1-C1", "undrained", SchemaError, "$.c_u_k"),
    ], ids=["no-bracket", "V_d-overflows", "N_q-overflows", "no-c_u_k"])
    def test_error_examples_raise_what_they_name(self, changes, da, drainage, kind,
                                                 message):
        got = _search_outcome(lambda: design_footing_width_ec7(
            _jrc_a3(**changes), da, drainage=drainage))
        assert got[0] is kind and got[1].startswith(message)
        assert ("partial_trace" in got[2]) == (kind is MathDomain)


    def test_fault_after_the_staged_steps(self):
        """A trial's fault in a step after the bearing capacity factors is
        raised with the failed step and the partial trace of the steps
        before it, those factors included."""
        with pytest.raises(NonFiniteValue) as err:
            design_footing_width_ec7(_HEAVY_SOIL, "DA2")
        assert str(err.value) == "'q_ult' is not a finite number"
        inputs = {"B": 20.0, "N_c": 61.35176569979716, "N_gamma": 74.89912273566651,
                  "N_q": 48.93325270205936, "c_prime_d": 0.0, "gamma": 1e306,
                  "q": 0.0, "s_c": 1.5873884268436504, "s_gamma": 0.719626168224299,
                  "s_q": 1.57538455637912}
        assert err.value.failed_step == {
            "target": "q_ult",
            "expression": "c_prime_d*N_c*s_c + q*N_q*s_q + 0.5*gamma*B*N_gamma*s_gamma",
            "inputs": inputs}
        partial = err.value.partial_trace
        assert [(step["target"], step["value"]) for step in partial.steps] == [
            (key, inputs[key]) for key in ("N_q", "N_c", "N_gamma", "s_q", "s_gamma", "s_c")]
        assert partial.outputs == {}
        assert partial.request_inputs == {
            "phi_prime_d": 0.6632251157578453, "c_prime_d": 0.0, "c_u_d": 0.0, "q": 0.0,
            "L": 21.4, "gamma": 1e306, "B": 20.0}
        assert partial.to_json() == strict_json(partial.to_dict())


class TestResultJson:
    @settings(max_examples=40, deadline=None)
    @given(_SCENARIOS, st.floats(0.05, 12.0))
    @example(_NO_C_U, 2.0)
    @example(_SUBMERGED_LIGHT, 2.0)
    def test_written_as_the_reference_writes(self, scenario, width):
        for da in DESIGN_APPROACHES:
            for drainage in ("drained", "undrained"):
                for run in (lambda: check_footing_uls_ec7(scenario, da, width,
                                                          drainage=drainage),
                            lambda: design_footing_width_ec7(scenario, da,
                                                             drainage=drainage)):
                    try:
                        result = run()
                    except GeocardError:
                        continue
                    _same_json(result)

    def test_null_utilization_and_c_u_d(self):
        body = _same_json(check_footing_uls_ec7(_SUBMERGED_LIGHT, "DA1-C1", 2.0))
        assert body["R_d"] < 0 and body["utilization"] is None and body["pass"] is False
        assert body["design_parameters"]["c_u_d"] is None

    @settings(max_examples=60, deadline=None)
    @given(utilization=st.one_of(st.just(math.inf), st.floats(allow_nan=False,
                                                              allow_infinity=False)),
           c_u_d=st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
           design_approach=_AWKWARD_TEXT, drainage=_AWKWARD_TEXT, passed=st.booleans(),
           B_req=st.floats(0.01, 50.0))
    @example(utilization=math.inf, c_u_d=None, design_approach='"\\\n\ud800',
             drainage="\u00fc\u20ac\U0001f600", passed=False, B_req=5e-324)
    def test_drawn_field_values(self, utilization, c_u_d, design_approach, drainage,
                                passed, B_req):
        """Results built by dataclasses.replace on a real check and design:
        an infinite utilization, a null c_u_d, and strings that need
        escaping, each written as the reference writes it."""
        check = dataclasses.replace(
            _REAL_CHECK, design_approach=design_approach, drainage=drainage,
            utilization=utilization, passed=passed,
            design_parameters={**_REAL_CHECK.design_parameters, "c_u_d": c_u_d})
        design = dataclasses.replace(_REAL_DESIGN, design_approach=design_approach,
                                     B_req=B_req, check=check)
        for result in (check, design):
            assert result._written() is not None
            text = strict_json(result.to_dict())
            assert to_reply(result) == encode_basestring_ascii(text)
        body = json.loads(json.loads(to_reply(design)))
        assert body["check"]["utilization"] == (None if utilization == math.inf
                                                else utilization)
        assert body["check"]["design_parameters"]["c_u_d"] == c_u_d
        assert (body["design_approach"], body["check"]["drainage"]) == (design_approach,
                                                                        drainage)

    @pytest.mark.parametrize("result", [_REAL_CHECK, _REAL_DESIGN], ids=["check", "design"])
    def test_every_body_scalar_goes_through_put(self, result):
        """``_body`` passes every scalar but the trace through ``put``, in
        document order: a scalar written without it would be cut into the
        template as a constant."""
        def leaves(node, slot):
            if node is slot:
                return []
            if isinstance(node, dict):
                return [leaf for item in node.values() for leaf in leaves(item, slot)]
            return [node]

        trace, mark = object(), object()
        marked = leaves(result._body(trace, put=lambda value: mark), trace)
        assert marked and all(leaf is mark for leaf in marked)
        reference = result.to_dict()
        scalars = leaves(reference, reference.get("check", reference)["trace"])
        assert len(marked) == len(scalars)
        put = []
        result._body(trace, put.append)
        assert put == scalars

    def test_templates_are_kept_per_variant_and_key_set(self):
        first = check_footing_uls_ec7(SCENARIO, "DA2", 2.0)
        check_template = first._written()[0]
        again = check_footing_uls_ec7(SCENARIO, "DA3", 3.0)
        assert again._written()[0] is check_template
        design_template = design_footing_width_ec7(SCENARIO, "DA2")._written()[0]
        assert design_footing_width_ec7(SCENARIO, "DA3")._written()[0] is design_template
        assert design_template is not check_template
        reordered = dataclasses.replace(first, design_parameters=dict(
            reversed(first.design_parameters.items())))
        assert reordered._written()[0] is not check_template
        assert _same_json(reordered) == _same_json(first)


def _doctored_catalog(edit) -> Catalog:
    """A catalog whose only card is the bundled EC7 card after ``edit``."""
    raw = json.loads((Path(__file__).parents[1] / "src/geocard/data/catalog"
                      / "bearing_capacity_eurocode7.json").read_text("utf-8"))
    edit(raw)
    return Catalog(cards={EC7_CARD_ID: load_card(json.dumps(raw))})


# No real value for 1.2 < B' < 1.5 m: the fourth trial width, 1.34375 m,
# fails midway through the plan, after every bracket check has passed.
_FAULT_WINDOW = " + 0*sqrt((B - 1.2)*(B - 1.5))"
_FAULT_WIDTH = 1.34375


def _fault_in_window(raw):
    for variant, target in (("drained", "s_gamma"), ("undrained", "q_ult")):
        equations = next(v for v in raw["variants"] if v["id"] == variant)
        eq = next(e for e in equations["equations"] if e["target"] == target)
        eq["sympy"] += _FAULT_WINDOW


def _fault_in_phi_window(raw):
    """No real N_q for 0.5 < phi'_d < 0.6 rad: the first step of the drained
    plan, which reads no width, faults for jrc_a3 under DA1-C2 and DA3."""
    drained = next(v for v in raw["variants"] if v["id"] == "drained")
    drained["equations"][0]["sympy"] += " + 0*sqrt((phi_prime_d - 0.5)*(phi_prime_d - 0.6))"


def _first_step_reads_width(raw):
    """N_q reads B, so no step of the drained plan is width-independent."""
    drained = next(v for v in raw["variants"] if v["id"] == "drained")
    drained["equations"][0]["sympy"] += " + 0*B"


def _extra_input(raw):
    raw["variables"].append({"key": "k_extra", "name": "unused",
                             "role": "input", "unit": "dimensionless"})


def _dropped_input(raw):
    raw["variants"] = [v for v in raw["variants"] if v["id"] == "drained"]
    raw["variables"] = [v for v in raw["variables"] if v["key"] != "c_u_d"]


def _raised(fn, kind):
    with pytest.raises(kind) as err:
        fn()
    return _error_record(err.value)


class TestWidthSearchErrors:
    @pytest.mark.parametrize("da", DESIGN_APPROACHES)
    @pytest.mark.parametrize("drainage, target", [("drained", "s_gamma"),
                                                  ("undrained", "q_ult")])
    def test_mid_search_fault_matches_traced_check(self, da, drainage, target):
        catalog = _doctored_catalog(_fault_in_window)
        scenario = dataclasses.replace(SCENARIO, c_u_k=150.0)
        expected = _raised(lambda: _reference_check(
            scenario, da, _FAULT_WIDTH, catalog=catalog, drainage=drainage),
            MathDomain)
        got = _raised(lambda: design_footing_width_ec7(
            scenario, da, catalog=catalog, drainage=drainage), MathDomain)
        assert got == expected
        _, message, failed_step, partial_trace = got
        assert message.startswith("sqrt of negative value")
        assert failed_step["target"] == target
        assert failed_step["inputs"]["B"] == _FAULT_WIDTH
        assert json.loads(partial_trace)["steps"]

    @pytest.mark.parametrize("edit, kind", [(_extra_input, MissingInput),
                                            (_dropped_input, UnexpectedInput)])
    def test_changed_input_keys_match_traced_check(self, edit, kind):
        catalog = _doctored_catalog(edit)
        expected = _raised(lambda: _reference_check(
            SCENARIO, "DA1-C1", 0.1, catalog=catalog), kind)
        got = _raised(lambda: design_footing_width_ec7(
            SCENARIO, "DA1-C1", catalog=catalog), kind)
        assert got == expected

    @pytest.mark.parametrize("da", DESIGN_APPROACHES)
    def test_fault_in_width_independent_step_matches_traced_search(self, da):
        catalog = _doctored_catalog(_fault_in_phi_window)
        got = _design_reply(lambda: design_footing_width_ec7(SCENARIO, da, catalog=catalog))
        assert got == _design_reply(lambda: _traced_search(SCENARIO, da, catalog=catalog))
        if da in ("DA1-C2", "DA3"):
            kind, message, failed_step, partial_trace = got
            assert kind is MathDomain and failed_step["target"] == "N_q"
            assert json.loads(partial_trace)["steps"] == []
        else:
            assert isinstance(got, str)

    @pytest.mark.parametrize("da", DESIGN_APPROACHES)
    def test_first_step_reading_width_matches_traced_search(self, da):
        catalog = _doctored_catalog(_first_step_reads_width)
        got = _design_reply(lambda: design_footing_width_ec7(SCENARIO, da, catalog=catalog))
        assert got == _design_reply(lambda: _traced_search(SCENARIO, da, catalog=catalog))
        assert json.loads(got)["B_req"] == design_footing_width_ec7(SCENARIO, da).B_req


def _unit_cycle(raw):
    """Each variant also solves k = 0*k + 1, a fixed-point block that
    converges at once, so ``stage`` declines the variant."""
    raw["variables"].append({"key": "k", "name": "unit_cycle",
                             "role": "intermediate", "unit": "dimensionless"})
    for variant in raw["variants"]:
        variant["equations"].append({"target": "k", "sympy": "0*k + 1"})


class TestTrialFallback:
    """A variant that cannot be staged sends every trial of the width
    search through ``evaluate_card``, whose env gives the same numbers as
    the staged loop on the bundled card."""

    @pytest.mark.parametrize("da", DESIGN_APPROACHES)
    @pytest.mark.parametrize("scenario, drainage", [("jrc_a3", "drained"),
                                                    ("eccentric_pad", "undrained")])
    def test_matches_the_staged_search(self, scenario, drainage, da, monkeypatch):
        import geocard.ec7

        chosen = SCENARIO if scenario == "jrc_a3" else load_scenario(
            (Path(__file__).parent / "data/scenario_eccentric_pad.json").read_text("utf-8"))
        calls = []

        def counting_evaluate(card, request):
            calls.append(request)
            return evaluate_card(card, request)

        monkeypatch.setattr(geocard.ec7, "evaluate_card", counting_evaluate)
        staged = design_footing_width_ec7(chosen, da, drainage=drainage)
        assert calls == []
        got = design_footing_width_ec7(chosen, da, drainage=drainage,
                                       catalog=_doctored_catalog(_unit_cycle))
        assert len(calls) >= got.iterations + 2  # both bracket ends, every halving
        assert got.check.trace.diagnostics["iterative_cycles"][0]["variables"] == ["k"]

        def numbers(design):
            check = design.check
            return [repr(x) for x in (design.B_req, design.iterations,
                                      check.V_d, check.R_d, check.utilization)]

        assert numbers(got) == numbers(staged)
