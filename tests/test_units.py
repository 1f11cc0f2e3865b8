"""Unit registry, dimension algebra, and conversion tests."""

import math

import pytest
from hypothesis import given, strategies as st

from geocard.errors import DimensionMismatch, MalformedQuantity, UnknownUnit
from geocard.units import (
    Dimension,
    Quantity,
    UnitRegistry,
    convert,
    default_registry,
    format_quantity,
    parse_quantity,
)

REG = default_registry()

REQUIRED_UNITS = ["m", "mm", "kPa", "Pa", "MPa", "kN", "N", "kN/m^3",
                  "kN/m", "deg", "radians", "dimensionless"]


class TestRegistry:
    def test_minimum_unit_set_resolves(self):
        for name in REQUIRED_UNITS:
            assert REG.resolve(name).name == name

    def test_documented_aliases(self):
        assert REG.resolve("degree") is REG.resolve("deg")
        assert REG.resolve("radian") is REG.resolve("radians")
        assert REG.resolve("kN/m³") is REG.resolve("kN/m^3")

    def test_unknown_unit(self):
        with pytest.raises(UnknownUnit):
            REG.resolve("furlongs")

    def test_compound_unit_strings_rejected(self):
        with pytest.raises(UnknownUnit):
            parse_quantity("3 kN*m")

    def test_loadable_from_json_table(self):
        custom = UnitRegistry.from_json(
            '{"units": [{"name": "dimensionless", "dimension": {}, "scale": 1.0},'
            '{"name": "cm", "dimension": {"length": 1}, "scale": 0.01}]}')
        assert custom.resolve("cm").scale == 0.01

    def test_units_of_one_dimension_share_one_dimension_object(self):
        """convert's dimension check is then an identity check."""
        assert REG.resolve("m").dimension is REG.resolve("mm").dimension
        assert REG.resolve("kPa").dimension is REG.resolve("MPa").dimension
        assert REG.resolve("deg").dimension is not REG.resolve("m").dimension


class TestParseQuantity:
    def test_paper_angle_example(self):
        q = parse_quantity("30 deg")
        assert q.magnitude == 30.0
        assert q.unit.name == "deg"

    def test_bare_zero_is_dimensionless(self):
        q = parse_quantity("0")
        assert q.magnitude == 0.0
        assert q.unit.name == "dimensionless"

    def test_unit_weight_example(self):
        q = parse_quantity("18 kN/m^3")
        assert q.magnitude == 18.0
        assert q.unit.name == "kN/m^3"
        q2 = parse_quantity("18 kN/m³")
        assert q2.unit is q.unit

    @pytest.mark.parametrize("bad", ["", "deg", "12..5 m", "1 2 m x y",
                                     "--3 m", "NaN-ish"])
    def test_malformed(self, bad):
        with pytest.raises((MalformedQuantity, UnknownUnit)):
            parse_quantity(bad)

    def test_scientific_notation(self):
        assert parse_quantity("1.5e3 kPa").magnitude == 1500.0


class TestConvert:
    def test_degrees_to_radians(self):
        q = convert(parse_quantity("30 deg"), REG.resolve("radians"))
        assert q.magnitude == pytest.approx(0.5235987756, abs=1e-9)

    def test_mpa_to_kpa(self):
        q = convert(parse_quantity("1 MPa"), REG.resolve("kPa"))
        assert q.magnitude == pytest.approx(1000.0)

    def test_identity_conversion(self):
        q = Quantity(23.19, REG.resolve("dimensionless"))
        assert convert(q, REG.resolve("dimensionless")).magnitude == 23.19

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            convert(parse_quantity("38 kPa"), REG.resolve("radians"))

    def test_angle_is_not_dimensionless(self):
        with pytest.raises(DimensionMismatch):
            convert(parse_quantity("1 deg"), REG.resolve("dimensionless"))


class TestCheckDimension:
    def test_equal_dimensions(self):
        assert REG.resolve("kPa").dimension == REG.resolve("MPa").dimension

    def test_pressure_vs_length(self):
        assert REG.resolve("kPa").dimension != REG.resolve("m").dimension

    def test_dimensionless_absorbs_in_products(self):
        composed = REG.resolve("kPa").dimension * REG.resolve("dimensionless").dimension
        assert composed == REG.resolve("kPa").dimension

    def test_group_laws(self):
        kpa = REG.resolve("kPa").dimension
        m = REG.resolve("m").dimension
        assert kpa * m == m * kpa
        assert (kpa / kpa).is_dimensionless()
        assert (m ** 2) / m == m


_convertible = st.sampled_from([("m", "mm"), ("kPa", "MPa"), ("kPa", "Pa"),
                                ("deg", "radians"), ("kN", "N")])
_magnitudes = st.floats(min_value=1e-6, max_value=1e6,
                        allow_nan=False, allow_infinity=False)


class TestProperties:
    @given(_magnitudes, _convertible)
    def test_round_trip(self, magnitude, pair):
        a, b = REG.resolve(pair[0]), REG.resolve(pair[1])
        q = Quantity(magnitude, a)
        back = convert(convert(q, b), a)
        assert back.magnitude == pytest.approx(magnitude, rel=1e-12)

    @given(_magnitudes)
    def test_conversion_composition(self, magnitude):
        q = Quantity(magnitude, REG.resolve("MPa"))
        direct = convert(q, REG.resolve("Pa"))
        via_kpa = convert(convert(q, REG.resolve("kPa")), REG.resolve("Pa"))
        assert via_kpa.magnitude == pytest.approx(direct.magnitude, rel=1e-12)

    @given(_magnitudes, st.sampled_from(REQUIRED_UNITS))
    def test_parse_format_identity(self, magnitude, unit_name):
        q = Quantity(magnitude, REG.resolve(unit_name))
        again = parse_quantity(format_quantity(q))
        assert again.unit is q.unit
        assert again.magnitude == q.magnitude

    def test_radian_degree_round_trip_is_exact_scale(self):
        q = Quantity(180.0, REG.resolve("deg"))
        assert convert(q, REG.resolve("radians")).magnitude == pytest.approx(math.pi)


class TestDimensionType:
    def test_pow_with_fractional_exponent(self):
        m = REG.resolve("m").dimension
        assert (m ** 0.5) ** 2 == m

    def test_str_forms(self):
        assert str(Dimension()) == "dimensionless"
        assert "length" in str(REG.resolve("m").dimension)
